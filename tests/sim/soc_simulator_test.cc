#include "src/sim/soc_simulator.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace heterollm::sim {
namespace {

MemoryConfig NoLossConfig() {
  MemoryConfig cfg;
  cfg.soc_bandwidth_bytes_per_us = 68e3;
  cfg.multi_stream_efficiency = 1.0;
  return cfg;
}

UnitSpec Gpu() {
  return UnitSpec{"gpu", /*bandwidth_cap_bytes_per_us=*/45e3, {4.0, 0.0}};
}
UnitSpec Npu() {
  return UnitSpec{"npu", /*bandwidth_cap_bytes_per_us=*/42e3, {2.0, 0.0}};
}

TEST(SocSimulatorTest, ComputeOnlyKernel) {
  SocSimulator soc(NoLossConfig());
  UnitId gpu = soc.AddUnit(Gpu());
  KernelHandle k = soc.Submit(gpu, {"k", /*compute=*/100.0, 0, 0}, 0);
  EXPECT_DOUBLE_EQ(soc.WaitForKernel(k), 100.0);
}

TEST(SocSimulatorTest, LaunchOverheadDelaysCompletion) {
  SocSimulator soc(NoLossConfig());
  UnitId gpu = soc.AddUnit(Gpu());
  KernelHandle k =
      soc.Submit(gpu, {"k", 100.0, 0, /*launch_overhead=*/20.0}, 0);
  EXPECT_DOUBLE_EQ(soc.WaitForKernel(k), 120.0);
}

TEST(SocSimulatorTest, MemoryBoundKernel) {
  SocSimulator soc(NoLossConfig());
  UnitId gpu = soc.AddUnit(Gpu());
  // 450e3 bytes at 45e3 B/µs -> 10 µs; compute only 1 µs.
  KernelHandle k = soc.Submit(gpu, {"k", 1.0, 450e3, 0}, 0);
  EXPECT_DOUBLE_EQ(soc.WaitForKernel(k), 10.0);
}

TEST(SocSimulatorTest, RooflineTakesMax) {
  SocSimulator soc(NoLossConfig());
  UnitId gpu = soc.AddUnit(Gpu());
  KernelHandle k = soc.Submit(gpu, {"k", 50.0, 450e3, 0}, 0);
  EXPECT_DOUBLE_EQ(soc.WaitForKernel(k), 50.0);  // compute-bound
}

TEST(SocSimulatorTest, FifoOrderWithinUnit) {
  SocSimulator soc(NoLossConfig());
  UnitId gpu = soc.AddUnit(Gpu());
  KernelHandle k1 = soc.Submit(gpu, {"k1", 10.0, 0, 0}, 0);
  KernelHandle k2 = soc.Submit(gpu, {"k2", 5.0, 0, 0}, 0);
  EXPECT_DOUBLE_EQ(soc.WaitForKernel(k2), 15.0);
  EXPECT_DOUBLE_EQ(soc.CompletionTime(k1), 10.0);
}

TEST(SocSimulatorTest, SubmitTimeDelaysStart) {
  SocSimulator soc(NoLossConfig());
  UnitId gpu = soc.AddUnit(Gpu());
  KernelHandle k = soc.Submit(gpu, {"k", 10.0, 0, 0}, /*submit_time=*/100.0);
  EXPECT_DOUBLE_EQ(soc.WaitForKernel(k), 110.0);
  EXPECT_DOUBLE_EQ(soc.StartTime(k), 100.0);
}

TEST(SocSimulatorTest, ParallelUnitsContendForBandwidth) {
  SocSimulator soc(NoLossConfig());
  UnitId gpu = soc.AddUnit(Gpu());
  UnitId npu = soc.AddUnit(Npu());
  // Each wants to move 340e3 bytes. Alone: gpu 7.56 µs, npu 8.1 µs.
  // Together, fair share is 34e3 each: both take 10 µs.
  KernelHandle kg = soc.Submit(gpu, {"g", 0.0, 340e3, 0}, 0);
  KernelHandle kn = soc.Submit(npu, {"n", 0.0, 340e3, 0}, 0);
  MicroSeconds tg = soc.WaitForKernel(kg);
  MicroSeconds tn = soc.WaitForKernel(kn);
  EXPECT_NEAR(tg, 10.0, 1e-6);
  EXPECT_NEAR(tn, 10.0, 1e-6);
}

TEST(SocSimulatorTest, SequentialSubmissionAfterWait) {
  SocSimulator soc(NoLossConfig());
  UnitId gpu = soc.AddUnit(Gpu());
  KernelHandle k1 = soc.Submit(gpu, {"k1", 10.0, 0, 0}, 0);
  MicroSeconds t1 = soc.WaitForKernel(k1);
  KernelHandle k2 = soc.Submit(gpu, {"k2", 10.0, 0, 0}, t1 + 5.0);
  EXPECT_DOUBLE_EQ(soc.WaitForKernel(k2), 25.0);
}

TEST(SocSimulatorTest, UnitHasWorkReflectsQueue) {
  SocSimulator soc(NoLossConfig());
  UnitId gpu = soc.AddUnit(Gpu());
  EXPECT_FALSE(soc.UnitHasWork(gpu));
  KernelHandle k = soc.Submit(gpu, {"k", 10.0, 0, 0}, 0);
  EXPECT_TRUE(soc.UnitHasWork(gpu));
  soc.WaitForKernel(k);
  EXPECT_FALSE(soc.UnitHasWork(gpu));
}

TEST(SocSimulatorTest, WaitForUnitIdleReturnsLastCompletion) {
  SocSimulator soc(NoLossConfig());
  UnitId gpu = soc.AddUnit(Gpu());
  soc.Submit(gpu, {"k1", 10.0, 0, 0}, 0);
  soc.Submit(gpu, {"k2", 10.0, 0, 0}, 0);
  EXPECT_DOUBLE_EQ(soc.WaitForUnitIdle(gpu), 20.0);
}

TEST(SocSimulatorTest, DrainAllFinishesEverything) {
  SocSimulator soc(NoLossConfig());
  UnitId gpu = soc.AddUnit(Gpu());
  UnitId npu = soc.AddUnit(Npu());
  soc.Submit(gpu, {"g", 30.0, 0, 0}, 0);
  soc.Submit(npu, {"n", 50.0, 0, 0}, 0);
  EXPECT_DOUBLE_EQ(soc.DrainAll(), 50.0);
}

TEST(SocSimulatorTest, BusyTimeAndPowerAccounted) {
  SocSimulator soc(NoLossConfig());
  UnitId gpu = soc.AddUnit(Gpu());
  KernelHandle k = soc.Submit(gpu, {"k", 100.0, 0, 0}, 0);
  soc.WaitForKernel(k);
  EXPECT_DOUBLE_EQ(soc.UnitBusyTime(gpu), 100.0);
  // 100 µs at 4 W = 400 µJ.
  EXPECT_DOUBLE_EQ(soc.power().TotalEnergy(100.0), 400.0);
}

// A kernel on an otherwise-idle unit that overlaps another unit's stream
// slows down mid-flight and speeds back up when the other stream ends.
TEST(SocSimulatorTest, TimeVaryingBandwidthIntegration) {
  SocSimulator soc(NoLossConfig());
  UnitId gpu = soc.AddUnit(Gpu());
  UnitId npu = soc.AddUnit(Npu());
  // GPU: 450e3 bytes. Alone it would take 10 µs at 45e3.
  KernelHandle kg = soc.Submit(gpu, {"g", 0.0, 450e3, 0}, 0);
  // NPU: short burst of 68e3 bytes starting at t=0: fair share 34e3 each ->
  // npu finishes at t=2, gpu then accelerates to 45e3.
  KernelHandle kn = soc.Submit(npu, {"n", 0.0, 68e3, 0}, 0);
  MicroSeconds tn = soc.WaitForKernel(kn);
  EXPECT_NEAR(tn, 2.0, 1e-6);
  // GPU progressed 68e3 bytes in [0,2], remaining 382e3 at 45e3 -> +8.49 µs.
  MicroSeconds tg = soc.WaitForKernel(kg);
  EXPECT_NEAR(tg, 2.0 + 382e3 / 45e3, 1e-6);
}

TEST(SocSimulatorTest, ManyKernelsStressFifo) {
  SocSimulator soc(NoLossConfig());
  UnitId gpu = soc.AddUnit(Gpu());
  KernelHandle last = kInvalidKernel;
  for (int i = 0; i < 1000; ++i) {
    last = soc.Submit(gpu, {"k", 1.0, 0, 0}, 0);
  }
  EXPECT_DOUBLE_EQ(soc.WaitForKernel(last), 1000.0);
}

// A timeline entry is one small fixed-size record; labels live in a
// separate interned table.
static_assert(SocSimulator::kLogRecordBytes <= 40,
              "kernel log record grew past 40 bytes");

// With the timeline recorded, a kernel that leaves the in-flight state
// first (submitted later, on another unit) and one that leaves it last both
// keep answering queries long after they finished.
TEST(SocSimulatorTest, FinishedKernelsAnswerAfterLeavingFlight) {
  SocSimulator soc(NoLossConfig());
  soc.RecordTimeline();
  UnitId gpu = soc.AddUnit(Gpu());
  UnitId npu = soc.AddUnit(Npu());
  KernelHandle slow = soc.Submit(gpu, {"slow", 100.0, 0, 0}, 0);
  KernelHandle fast = soc.Submit(npu, {"fast", 10.0, 0, 0}, 5.0);
  EXPECT_DOUBLE_EQ(soc.WaitForKernel(fast), 15.0);
  EXPECT_TRUE(soc.IsFinished(fast));
  EXPECT_FALSE(soc.IsFinished(slow));
  EXPECT_DOUBLE_EQ(soc.StartTime(slow), 0.0);
  EXPECT_DOUBLE_EQ(soc.WaitForKernel(slow), 100.0);
  // Enough later traffic on both units to cross several log chunks.
  for (int i = 0; i < 10000; ++i) {
    soc.Submit(i % 2 == 0 ? gpu : npu, {"later", 1.0, 0, 0}, soc.now());
  }
  soc.DrainAll();
  EXPECT_TRUE(soc.IsFinished(slow));
  EXPECT_TRUE(soc.IsFinished(fast));
  EXPECT_DOUBLE_EQ(soc.StartTime(slow), 0.0);
  EXPECT_DOUBLE_EQ(soc.CompletionTime(slow), 100.0);
  EXPECT_DOUBLE_EQ(soc.StartTime(fast), 5.0);
  EXPECT_DOUBLE_EQ(soc.CompletionTime(fast), 15.0);
}

TEST(SocSimulatorTest, VisitFinishedKernelsInSubmissionOrder) {
  SocSimulator soc(NoLossConfig());
  soc.RecordTimeline();
  UnitId gpu = soc.AddUnit(Gpu());
  UnitId npu = soc.AddUnit(Npu());
  // Completion order is b, c, a; submission order a, b, c.
  soc.Submit(gpu, {"a", 30.0, 0, 0}, 0);
  soc.Submit(npu, {"b", 20.0, 0, 0}, 0);
  soc.Submit(npu, {"c", 1.0, 0, 0}, /*submit_time=*/0);
  soc.DrainAll();
  std::vector<std::string> labels;
  std::vector<UnitId> units;
  soc.VisitFinishedKernels([&](const std::string& label, UnitId unit,
                               MicroSeconds, MicroSeconds, Bytes, Flops) {
    labels.push_back(label);
    units.push_back(unit);
  });
  EXPECT_EQ(labels, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(units, (std::vector<UnitId>{gpu, npu, npu}));
}

TEST(SocSimulatorTest, VisitSkipsUnfinishedKernels) {
  SocSimulator soc(NoLossConfig());
  soc.RecordTimeline();
  UnitId gpu = soc.AddUnit(Gpu());
  KernelHandle first = soc.Submit(gpu, {"first", 10.0, 0, 0}, 0);
  soc.Submit(gpu, {"second", 10.0, 0, 0}, 0);
  soc.WaitForKernel(first);
  int visited = 0;
  soc.VisitFinishedKernels([&](const std::string& label, UnitId,
                               MicroSeconds start, MicroSeconds end, Bytes,
                               Flops) {
    EXPECT_EQ(label, "first");
    EXPECT_DOUBLE_EQ(start, 0.0);
    EXPECT_DOUBLE_EQ(end, 10.0);
    ++visited;
  });
  EXPECT_EQ(visited, 1);
}

// Labels past the small-string buffer, bytes and flops come back intact.
TEST(SocSimulatorTest, LongLabelsRoundTrip) {
  SocSimulator soc(NoLossConfig());
  soc.RecordTimeline();
  UnitId npu = soc.AddUnit(Npu());
  const std::string label = "lm_head:npu-seq256";
  ASSERT_GT(label.size(), 15u);
  KernelDesc desc{label, 5.0, 420e3, 0};
  desc.flops = 1.5e9;
  soc.Submit(npu, desc, 0);
  soc.DrainAll();
  int visited = 0;
  soc.VisitFinishedKernels([&](const std::string& seen, UnitId unit,
                               MicroSeconds, MicroSeconds, Bytes bytes,
                               Flops flops) {
    EXPECT_EQ(seen, label);
    EXPECT_EQ(unit, npu);
    EXPECT_DOUBLE_EQ(bytes, 420e3);
    EXPECT_DOUBLE_EQ(flops, 1.5e9);
    ++visited;
  });
  EXPECT_EQ(visited, 1);
}

// 10k kernels over three labels intern three strings: past the first three
// submissions the recorded timeline grows by exactly one record per kernel,
// and equal labels reach the visitor as the same string object.
TEST(SocSimulatorTest, LabelsAreInternedOncePerDistinctLabel) {
  SocSimulator soc(NoLossConfig());
  soc.RecordTimeline();
  UnitId gpu = soc.AddUnit(Gpu());
  const std::string names[] = {"attn:L0", "ffn_down:gpu-seq1",
                               "lm_head:npu-seq256"};
  EXPECT_EQ(soc.history_bytes(), 0u);
  for (const std::string& name : names) {
    soc.Submit(gpu, {name, 1.0, 0, 0}, 0);
  }
  const size_t after_three = soc.history_bytes();
  EXPECT_GT(after_three, 3 * SocSimulator::kLogRecordBytes);
  constexpr int kKernels = 10000;
  for (int i = 3; i < kKernels; ++i) {
    soc.Submit(gpu, {names[i % 3], 1.0, 0, 0}, 0);
  }
  EXPECT_EQ(soc.kernel_count(), kKernels);
  EXPECT_EQ(soc.history_bytes(),
            after_three + (kKernels - 3) * SocSimulator::kLogRecordBytes);
  soc.DrainAll();
  const std::string* seen[3] = {nullptr, nullptr, nullptr};
  int visited = 0;
  soc.VisitFinishedKernels([&](const std::string& label, UnitId,
                               MicroSeconds, MicroSeconds end, Bytes, Flops) {
    const int i = visited % 3;
    EXPECT_EQ(label, names[i]);
    EXPECT_DOUBLE_EQ(end, visited + 1.0);
    if (seen[i] == nullptr) {
      seen[i] = &label;
    }
    EXPECT_EQ(&label, seen[i]);
    ++visited;
  });
  EXPECT_EQ(visited, kKernels);
}

// Without the timeline, a retired kernel answers while it is among the
// last kRecentRetirements handles; a kept kernel answers for the whole run.
TEST(SocSimulatorTest, RecentAndKeptKernelsAnswerWithoutTimeline) {
  SocSimulator soc(NoLossConfig());
  UnitId gpu = soc.AddUnit(Gpu());
  KernelDesc kept_desc{"kept", 2.0, 0, 0};
  kept_desc.keep_times = true;
  const KernelHandle kept = soc.Submit(gpu, kept_desc, 0);
  const KernelHandle edge = soc.Submit(gpu, {"edge", 1.0, 0, 0}, 0);
  for (int64_t i = 2; i < SocSimulator::kRecentRetirements + 1; ++i) {
    soc.Submit(gpu, {"later", 1.0, 0, 0}, 0);
  }
  soc.DrainAll();
  // `edge` is the oldest handle the recent store still covers.
  EXPECT_TRUE(soc.IsFinished(edge));
  EXPECT_DOUBLE_EQ(soc.StartTime(edge), 2.0);
  EXPECT_DOUBLE_EQ(soc.CompletionTime(edge), 3.0);
  for (int i = 0; i < 3 * SocSimulator::kRecentRetirements; ++i) {
    soc.Submit(gpu, {"later", 1.0, 0, 0}, soc.now());
  }
  soc.DrainAll();
  EXPECT_TRUE(soc.IsFinished(kept));
  EXPECT_DOUBLE_EQ(soc.StartTime(kept), 0.0);
  EXPECT_DOUBLE_EQ(soc.CompletionTime(kept), 2.0);
}

// A kernel still queued or running answers however many kernels were
// submitted after it, and a wait on it returns its completion even though
// it retires outside the recent window.
TEST(SocSimulatorTest, OldInFlightKernelsAnswerWithoutTimeline) {
  SocSimulator soc(NoLossConfig());
  UnitId gpu = soc.AddUnit(Gpu());
  UnitId npu = soc.AddUnit(Npu());
  const KernelHandle slow = soc.Submit(gpu, {"slow", 1e5, 0, 0}, 0);
  const KernelHandle queued = soc.Submit(gpu, {"queued", 10.0, 0, 0}, 0);
  KernelHandle last = kInvalidKernel;
  for (int64_t i = 0; i < 2 * SocSimulator::kRecentRetirements; ++i) {
    last = soc.Submit(npu, {"npu", 1.0, 0, 0}, 0);
  }
  EXPECT_DOUBLE_EQ(soc.WaitForKernel(last),
                   2.0 * SocSimulator::kRecentRetirements);
  EXPECT_FALSE(soc.IsFinished(slow));
  EXPECT_DOUBLE_EQ(soc.StartTime(slow), 0.0);
  EXPECT_FALSE(soc.IsFinished(queued));
  EXPECT_DOUBLE_EQ(soc.WaitForKernel(queued), 1e5 + 10.0);
  // Its late retirement leaves the newest kernel, which shares its store
  // entry, alone (npu kernel j has handle j + 2 and ends at j + 1).
  const KernelHandle slot_mate =
      queued + 2 * SocSimulator::kRecentRetirements;
  ASSERT_EQ(slot_mate, last);
  EXPECT_DOUBLE_EQ(soc.CompletionTime(slot_mate),
                   static_cast<double>(slot_mate - 1));
}

// With the timeline off, what the simulator retains stops growing once
// the recent-retirement store is full, however long the run.
TEST(SocSimulatorTest, RetainedBytesStayBoundedWithoutTimeline) {
  SocSimulator soc(NoLossConfig());
  UnitId gpu = soc.AddUnit(Gpu());
  UnitId npu = soc.AddUnit(Npu());
  const std::string names[] = {"attn:L0", "ffn_down:gpu-seq1"};
  auto run_kernels = [&](int64_t count) {
    for (int64_t i = 0; i < count; ++i) {
      soc.Submit(i % 2 == 0 ? gpu : npu, {names[i % 2], 1.0, 1e3, 0},
                 soc.now());
      if (i % 1000 == 999) {
        soc.DrainAll();
      }
    }
    soc.DrainAll();
  };
  run_kernels(2 * SocSimulator::kRecentRetirements);
  const size_t after_short_run = soc.history_bytes();
  EXPECT_LT(after_short_run,
            SocSimulator::kRecentRetirements * SocSimulator::kLogRecordBytes);
  run_kernels(8 * SocSimulator::kRecentRetirements);
  EXPECT_EQ(soc.history_bytes(), after_short_run);
}

TEST(SocSimulatorDeathTest, AgedOutKernelQueryNamesTheTimeline) {
  SocSimulator soc(NoLossConfig());
  UnitId gpu = soc.AddUnit(Gpu());
  const KernelHandle first = soc.Submit(gpu, {"first", 1.0, 0, 0}, 0);
  for (int64_t i = 0; i < SocSimulator::kRecentRetirements; ++i) {
    soc.Submit(gpu, {"later", 1.0, 0, 0}, 0);
  }
  soc.DrainAll();
  EXPECT_DEATH(soc.CompletionTime(first), "RecordTimeline");
  EXPECT_DEATH(soc.IsFinished(first), "RecordTimeline");
  EXPECT_DEATH(soc.WaitForKernel(first), "RecordTimeline");
}

TEST(SocSimulatorDeathTest, TimelineVisitWithoutRecordingAborts) {
  SocSimulator soc(NoLossConfig());
  UnitId gpu = soc.AddUnit(Gpu());
  soc.Submit(gpu, {"k", 1.0, 0, 0}, 0);
  soc.DrainAll();
  EXPECT_DEATH(soc.VisitFinishedKernels([](const std::string&, UnitId,
                                           MicroSeconds, MicroSeconds, Bytes,
                                           Flops) {}),
               "RecordTimeline");
  EXPECT_DEATH(soc.RecordTimeline(), "before any kernel");
}

TEST(SocSimulatorDeathTest, StartTimeOfPendingKernelAborts) {
  SocSimulator soc(NoLossConfig());
  UnitId gpu = soc.AddUnit(Gpu());
  soc.Submit(gpu, {"first", 10.0, 0, 0}, 0);
  KernelHandle queued = soc.Submit(gpu, {"queued", 10.0, 0, 0}, 0);
  EXPECT_DEATH(soc.StartTime(queued), "not started");
}

TEST(SocSimulatorDeathTest, CompletionTimeOfRunningKernelAborts) {
  SocSimulator soc(NoLossConfig());
  UnitId gpu = soc.AddUnit(Gpu());
  UnitId npu = soc.AddUnit(Npu());
  KernelHandle running = soc.Submit(gpu, {"long", 100.0, 0, 0}, 0);
  soc.WaitForKernel(soc.Submit(npu, {"short", 1.0, 0, 0}, 0));
  ASSERT_DOUBLE_EQ(soc.StartTime(running), 0.0);
  EXPECT_DEATH(soc.CompletionTime(running), "not finished");
}

TEST(SocSimulatorDeathTest, UnknownHandleAborts) {
  SocSimulator soc(NoLossConfig());
  UnitId gpu = soc.AddUnit(Gpu());
  KernelHandle k = soc.Submit(gpu, {"k", 1.0, 0, 0}, 0);
  EXPECT_DEATH(soc.IsFinished(k + 1), "");
  EXPECT_DEATH(soc.IsFinished(kInvalidKernel), "");
}

}  // namespace
}  // namespace heterollm::sim
