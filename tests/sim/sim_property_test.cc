// Property tests over randomized simulator workloads: scheduling invariants
// that must hold for any submission pattern.

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/engine_registry.h"
#include "src/core/execution_report.h"
#include "src/core/platform.h"
#include "src/model/model_config.h"
#include "src/model/weights.h"
#include "src/serve/replica.h"
#include "src/serve/request_queue.h"
#include "src/sim/soc_simulator.h"
#include "src/sim/trace.h"

namespace heterollm::sim {
namespace {

struct Workload {
  struct Item {
    UnitId unit;
    KernelDesc desc;
    MicroSeconds submit;
  };
  std::vector<Item> items;
};

Workload RandomWorkload(Rng& rng, int units, int kernels) {
  Workload w;
  MicroSeconds t = 0;
  for (int i = 0; i < kernels; ++i) {
    Workload::Item item;
    item.unit = static_cast<UnitId>(rng.NextBelow(static_cast<uint64_t>(units)));
    item.desc.label = "k" + std::to_string(i);
    item.desc.compute_time = rng.NextUniform(0.0, 500.0);
    item.desc.memory_bytes = rng.NextUniform(0.0, 5e6);
    item.desc.launch_overhead = rng.NextUniform(0.0, 20.0);
    t += rng.NextUniform(0.0, 100.0);
    item.submit = t;
    w.items.push_back(item);
  }
  return w;
}

class SimPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimPropertyTest, RandomWorkloadInvariants) {
  Rng rng(GetParam());
  SocSimulator soc(MemoryConfig{});
  const int kUnits = 3;
  std::vector<double> caps = {40e3, 43.3e3, 42e3};
  for (int u = 0; u < kUnits; ++u) {
    soc.AddUnit({"u" + std::to_string(u), caps[static_cast<size_t>(u)], {}});
  }
  Workload w = RandomWorkload(rng, kUnits, 120);
  std::vector<KernelHandle> handles;
  for (const auto& item : w.items) {
    handles.push_back(soc.Submit(item.unit, item.desc, item.submit));
  }
  soc.DrainAll();

  // Invariant 1: every kernel runs after its submit time, for at least
  // launch + compute, and no faster than its unit's bandwidth allows.
  std::map<UnitId, std::vector<std::pair<MicroSeconds, MicroSeconds>>> spans;
  for (size_t i = 0; i < handles.size(); ++i) {
    const auto& item = w.items[i];
    const MicroSeconds start = soc.StartTime(handles[i]);
    const MicroSeconds end = soc.CompletionTime(handles[i]);
    EXPECT_GE(start, item.submit - 1e-6);
    EXPECT_GE(end - start,
              item.desc.launch_overhead + item.desc.compute_time - 1e-6);
    const double cap = caps[static_cast<size_t>(item.unit)];
    EXPECT_GE(end - start, item.desc.memory_bytes / cap - 1e-6);
    spans[item.unit].push_back({start, end});
  }

  // Invariant 2: kernels on one unit never overlap (serial execution).
  for (auto& [unit, list] : spans) {
    std::sort(list.begin(), list.end());
    for (size_t i = 1; i < list.size(); ++i) {
      EXPECT_GE(list[i].first, list[i - 1].second - 1e-6)
          << "overlap on unit " << unit;
    }
  }

  // Invariant 3: conservation — all bytes were transferred, exactly once.
  double expected_bytes = 0;
  for (const auto& item : w.items) {
    expected_bytes += item.desc.memory_bytes;
  }
  EXPECT_NEAR(soc.memory().total_bytes_transferred(), expected_bytes,
              expected_bytes * 1e-9 + 1e-3);

  // Invariant 4: busy time equals the sum of kernel durations per unit.
  std::vector<MicroSeconds> busy(kUnits, 0);
  for (size_t i = 0; i < handles.size(); ++i) {
    busy[static_cast<size_t>(w.items[i].unit)] +=
        soc.CompletionTime(handles[i]) - soc.StartTime(handles[i]);
  }
  for (int u = 0; u < kUnits; ++u) {
    EXPECT_NEAR(soc.UnitBusyTime(u), busy[static_cast<size_t>(u)], 1e-3);
  }
}

TEST_P(SimPropertyTest, DeterministicReplay) {
  auto run = [&](uint64_t seed) {
    Rng rng(seed);
    SocSimulator soc(MemoryConfig{});
    for (int u = 0; u < 3; ++u) {
      soc.AddUnit({"u", 42e3, {}});
    }
    Workload w = RandomWorkload(rng, 3, 60);
    std::vector<KernelHandle> handles;
    for (const auto& item : w.items) {
      handles.push_back(soc.Submit(item.unit, item.desc, item.submit));
    }
    soc.DrainAll();
    std::vector<MicroSeconds> ends;
    for (KernelHandle h : handles) {
      ends.push_back(soc.CompletionTime(h));
    }
    return ends;
  };
  EXPECT_EQ(run(GetParam()), run(GetParam()));
}

TEST_P(SimPropertyTest, TraceIsWellFormedAndComplete) {
  Rng rng(GetParam());
  SocSimulator soc(MemoryConfig{});
  soc.RecordTimeline();
  soc.AddUnit({"gpu", 43e3, {}});
  soc.AddUnit({"npu", 42e3, {}});
  Workload w = RandomWorkload(rng, 2, 40);
  for (const auto& item : w.items) {
    soc.Submit(item.unit, item.desc, item.submit);
  }
  soc.DrainAll();
  const std::vector<KernelRecord> records = CollectFinishedKernels(soc);
  EXPECT_EQ(records.size(), w.items.size());
  for (const KernelRecord& r : records) {
    EXPECT_GE(r.end, r.start);
    EXPECT_TRUE(r.unit_name == "gpu" || r.unit_name == "npu");
  }
}

void ExpectClose(double ledger, double timeline, const std::string& what) {
  EXPECT_LE(std::abs(ledger - timeline),
            1e-12 * std::max(std::abs(ledger), std::abs(timeline)))
      << what << ": ledger " << ledger << " vs timeline " << timeline;
}

// The ledger-built and the timeline-built report over [start, end] agree:
// kernel and op counts exactly, busy time, bytes and flops to 1e-12
// relative.
void ExpectReportsAgree(const core::Platform& platform, MicroSeconds start,
                        MicroSeconds end) {
  using core::ExecutionReport;
  constexpr int kAllOps = 1 << 20;
  const ExecutionReport ledger = ExecutionReport::Build(
      platform, start, end, kAllOps, ExecutionReport::Source::kLedger);
  const ExecutionReport timeline = ExecutionReport::Build(
      platform, start, end, kAllOps, ExecutionReport::Source::kTimeline);
  ASSERT_EQ(ledger.units.size(), timeline.units.size());
  for (size_t u = 0; u < ledger.units.size(); ++u) {
    const auto& a = ledger.units[u];
    const auto& b = timeline.units[u];
    EXPECT_EQ(a.unit, b.unit);
    EXPECT_EQ(a.kernels, b.kernels) << a.unit;
    ExpectClose(a.busy, b.busy, a.unit + " busy");
    ExpectClose(a.utilization, b.utilization, a.unit + " utilization");
    ExpectClose(a.bytes, b.bytes, a.unit + " bytes");
    ExpectClose(a.flops, b.flops, a.unit + " flops");
  }
  // Near-equal totals may sort differently; match rows by (op, unit).
  std::map<std::pair<std::string, std::string>,
           const ExecutionReport::OpRow*>
      timeline_ops;
  for (const auto& op : timeline.ops) {
    timeline_ops[{op.op, op.unit}] = &op;
  }
  ASSERT_EQ(ledger.ops.size(), timeline.ops.size());
  for (const auto& a : ledger.ops) {
    const auto it = timeline_ops.find({a.op, a.unit});
    ASSERT_NE(it, timeline_ops.end()) << a.op << " on " << a.unit;
    const ExecutionReport::OpRow& b = *it->second;
    const std::string what = a.op + " on " + a.unit;
    EXPECT_EQ(a.count, b.count) << what;
    ExpectClose(a.total, b.total, what + " total");
    ExpectClose(a.bytes, b.bytes, what + " bytes");
    ExpectClose(a.flops, b.flops, what + " flops");
  }
}

// Seeded random kernel mixes in phases that each end in a DrainAll: every
// window between quiesce points that the ledger answers matches the
// timeline, the ledger answers from time 0 and from every quiesce point it
// keeps a segment for, and it refuses a window that cuts through a kernel.
TEST_P(SimPropertyTest, LedgerMatchesTimelineOnQuiescedWindows) {
  Rng rng(GetParam());
  core::Platform platform;
  SocSimulator& soc = platform.soc();
  soc.RecordTimeline();
  const std::string labels[] = {"mm:L0",  "mm:L1",   "attn:L0",
                                "attn:L7", "rmsnorm", "lm_head:npu-seq256"};
  constexpr int kPhases = static_cast<int>(SocSimulator::kLedgerSegments) + 4;
  std::vector<MicroSeconds> quiesce = {0};
  for (int phase = 0; phase < kPhases; ++phase) {
    MicroSeconds t = soc.now();
    const int kernels = 5 + static_cast<int>(rng.NextBelow(40));
    for (int i = 0; i < kernels; ++i) {
      KernelDesc desc;
      desc.label = labels[rng.NextBelow(6)];
      if (rng.NextUniform(0.0, 1.0) >= 0.05) {  // else a zero-length kernel
        desc.compute_time = rng.NextUniform(0.0, 300.0);
        desc.memory_bytes = rng.NextUniform(0.0, 4e6);
        desc.launch_overhead = rng.NextUniform(0.0, 10.0);
        desc.flops = rng.NextUniform(0.0, 1e9);
      }
      t += rng.NextUniform(0.0, 80.0);
      soc.Submit(static_cast<UnitId>(rng.NextBelow(3)), desc, t);
    }
    soc.DrainAll();
    quiesce.push_back(soc.now());

    const size_t newest = quiesce.size() - 1;
    for (size_t i = 0; i < newest; ++i) {
      const bool kept = i == 0 || i + SocSimulator::kLedgerSegments >
                                      newest + 1;
      for (const MicroSeconds end : {quiesce[newest], quiesce[newest] + 50}) {
        const bool answered = soc.VisitRetiredTotals(
            quiesce[i], end,
            [](const std::string&, UnitId, const RetiredTotals&) {});
        if (kept) {
          EXPECT_TRUE(answered) << "window from quiesce point " << i;
        }
        if (answered) {
          ExpectReportsAgree(platform, quiesce[i], end);
        }
      }
    }
    // The last kernel to retire ended at the drain: a window closing
    // before it cuts through it.
    EXPECT_FALSE(soc.VisitRetiredTotals(
        0, quiesce[newest] - 1.0,
        [](const std::string&, UnitId, const RetiredTotals&) {}));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 17u, 42u, 1234u,
                                           987654321u));

TEST(TraceTest, ChromeJsonParses) {
  SocSimulator soc(MemoryConfig{});
  soc.RecordTimeline();
  UnitId gpu = soc.AddUnit({"gpu", 43e3, {}});
  soc.Submit(gpu, {"matmul \"q\"", 100.0, 1e6, 5.0}, 0);
  soc.DrainAll();
  std::ostringstream os;
  WriteChromeTrace(soc, os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("matmul \\\"q\\\""), std::string::npos);  // escaped
  EXPECT_NE(json.find("thread_name"), std::string::npos);
}

// One real serving window: a hybrid-chunked Replica serves a mixed trace
// with the timeline on, and its window report (built from the ledger)
// matches the timeline's, unit rows bit for bit.
TEST(LedgerTimelineTest, ReplicaServingWindowAgrees) {
  const model::ModelConfig cfg = model::ModelConfig::Tiny();
  const model::ModelWeights weights =
      model::ModelWeights::Create(cfg, model::ExecutionMode::kSimulate);
  serve::ReplicaOptions ropts;
  ropts.platform = core::PlatformOptionsFor("Hetero-tensor");
  ropts.scheduler.iteration = serve::IterationPolicy::kHybridChunked;
  ropts.scheduler.prefill_chunk_tokens = 64;
  ropts.scheduler.max_decode_batch = 4;
  ropts.scheduler.speculative_window = 2;
  auto replica = serve::Replica::Create(ropts, &weights);
  ASSERT_TRUE(replica.ok());
  core::Platform& platform = (*replica)->platform();
  platform.soc().RecordTimeline();
  std::vector<serve::Request> reqs;
  for (int i = 0; i < 8; ++i) {
    reqs.push_back(serve::Request::Chat(i, i * 3e3, 40 + 20 * i, 8 + i));
  }
  const serve::ServingMetrics m =
      (*replica)->Serve(serve::RequestQueue(reqs));
  ASSERT_GT(m.window_end, m.window_start);
  ExpectReportsAgree(platform, m.window_start, m.window_end);
  const core::ExecutionReport timeline = core::ExecutionReport::Build(
      platform, m.window_start, m.window_end, 12,
      core::ExecutionReport::Source::kTimeline);
  ASSERT_EQ(m.report.units.size(), timeline.units.size());
  int kernels = 0;
  for (size_t u = 0; u < timeline.units.size(); ++u) {
    const auto& a = m.report.units[u];
    const auto& b = timeline.units[u];
    EXPECT_EQ(a.kernels, b.kernels);
    EXPECT_EQ(a.busy, b.busy) << a.unit;
    EXPECT_EQ(a.bytes, b.bytes) << a.unit;
    EXPECT_EQ(a.flops, b.flops) << a.unit;
    kernels += b.kernels;
  }
  EXPECT_GT(kernels, 100);
}

}  // namespace
}  // namespace heterollm::sim
