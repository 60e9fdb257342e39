// Scheduling-level invariants of engine runs, checked against the
// simulator's kernel timeline: dominance of the right backend per phase,
// bandwidth-boundedness of decode, and timeline sanity.

#include <map>

#include <gtest/gtest.h>

#include "src/core/engine_registry.h"
#include "src/sim/trace.h"

namespace heterollm::core {
namespace {

using model::ExecutionMode;
using model::ModelConfig;
using model::ModelWeights;
using tensor::Shape;
using tensor::Tensor;

class EngineScheduleTest : public ::testing::Test {
 protected:
  EngineScheduleTest()
      : weights_(ModelWeights::Create(ModelConfig::Llama8B(),
                                      ExecutionMode::kSimulate)) {}
  ModelWeights weights_;
};

TEST_F(EngineScheduleTest, PrefillIsNpuDominantForHeteroLayer) {
  // Layer-level: matmuls on the NPU, only vector ops on the GPU, so the
  // NPU clearly dominates busy time (Fig. 11).
  Platform plat;
  auto engine = CreateEngine("Hetero-layer", &plat, &weights_);
  engine->Generate(256, 0);
  const MicroSeconds npu = plat.soc().UnitBusyTime(plat.npu().unit());
  const MicroSeconds gpu = plat.soc().UnitBusyTime(plat.gpu().unit());
  EXPECT_GT(npu, 2.0 * gpu);
  EXPECT_GT(gpu, 0.0);  // but the GPU genuinely participates
}

TEST_F(EngineScheduleTest, PrefillUsesBothHeavilyForHeteroTensor) {
  // Tensor-level: the GPU additionally absorbs row/seq-cut pieces, so both
  // accelerators stay busy for comparable spans.
  Platform plat;
  auto engine = CreateEngine("Hetero-tensor", &plat, &weights_);
  engine->Generate(256, 0);
  const MicroSeconds npu = plat.soc().UnitBusyTime(plat.npu().unit());
  const MicroSeconds gpu = plat.soc().UnitBusyTime(plat.gpu().unit());
  EXPECT_GT(npu, 0.0);
  EXPECT_GT(gpu, 0.0);
  EXPECT_LT(std::abs(npu - gpu) / std::max(npu, gpu), 0.6);
}

TEST_F(EngineScheduleTest, DecodeUsesBothBackendsForHetero) {
  Platform plat;
  auto engine = CreateEngine("Hetero-tensor", &plat, &weights_);
  engine->Prefill(Tensor::Deferred(Shape({64, 4096}), tensor::DType::kFp16));
  const MicroSeconds npu0 = plat.soc().UnitBusyTime(plat.npu().unit());
  const MicroSeconds gpu0 = plat.soc().UnitBusyTime(plat.gpu().unit());
  for (int i = 0; i < 4; ++i) {
    engine->DecodeStep(
        Tensor::Deferred(Shape({1, 4096}), tensor::DType::kFp16));
  }
  plat.soc().DrainAll();
  EXPECT_GT(plat.soc().UnitBusyTime(plat.npu().unit()) - npu0, 0.0);
  EXPECT_GT(plat.soc().UnitBusyTime(plat.gpu().unit()) - gpu0, 0.0);
}

TEST_F(EngineScheduleTest, GpuOnlyEngineNeverTouchesNpu) {
  Platform plat;
  auto engine = CreateEngine("PPL-OpenCL", &plat, &weights_);
  engine->Generate(128, 4);
  EXPECT_DOUBLE_EQ(plat.soc().UnitBusyTime(plat.npu().unit()), 0.0);
  EXPECT_DOUBLE_EQ(plat.soc().UnitBusyTime(plat.cpu().unit()), 0.0);
}

TEST_F(EngineScheduleTest, CpuOnlyEngineNeverTouchesAccelerators) {
  Platform plat;
  auto engine = CreateEngine("llama.cpp", &plat, &weights_);
  engine->Generate(64, 2);
  EXPECT_DOUBLE_EQ(plat.soc().UnitBusyTime(plat.npu().unit()), 0.0);
  EXPECT_DOUBLE_EQ(plat.soc().UnitBusyTime(plat.gpu().unit()), 0.0);
}

TEST_F(EngineScheduleTest, HeteroLayerDecodeLeavesNpuIdle) {
  // §5.3: hetero-layer always chooses the GPU in decoding layers.
  Platform plat;
  auto engine = CreateEngine("Hetero-layer", &plat, &weights_);
  engine->Prefill(Tensor::Deferred(Shape({64, 4096}), tensor::DType::kFp16));
  plat.soc().DrainAll();
  const MicroSeconds npu0 = plat.soc().UnitBusyTime(plat.npu().unit());
  for (int i = 0; i < 3; ++i) {
    engine->DecodeStep(
        Tensor::Deferred(Shape({1, 4096}), tensor::DType::kFp16));
  }
  plat.soc().DrainAll();
  EXPECT_DOUBLE_EQ(plat.soc().UnitBusyTime(plat.npu().unit()), npu0);
}

TEST_F(EngineScheduleTest, DecodeAchievedBandwidthInPaperRange) {
  Platform plat;
  auto engine = CreateEngine("Hetero-tensor", &plat, &weights_);
  engine->Prefill(Tensor::Deferred(Shape({64, 4096}), tensor::DType::kFp16));
  plat.soc().DrainAll();
  const Bytes before = plat.soc().memory().total_bytes_transferred();
  const MicroSeconds t0 = plat.soc().now();
  for (int i = 0; i < 6; ++i) {
    engine->DecodeStep(
        Tensor::Deferred(Shape({1, 4096}), tensor::DType::kFp16));
  }
  plat.soc().DrainAll();
  const double gbps = ToGBPerSecond(
      plat.soc().memory().total_bytes_transferred() - before,
      plat.soc().now() - t0);
  // Above any single processor's achieved rate, below the SoC ceiling.
  EXPECT_GT(gbps, 45.0);
  EXPECT_LT(gbps, 68.0);
}

TEST_F(EngineScheduleTest, TimelineHasNoIntraUnitOverlap) {
  Platform plat;
  plat.soc().RecordTimeline();
  auto engine = CreateEngine("Hetero-tensor", &plat, &weights_);
  engine->Generate(128, 2);
  std::vector<sim::KernelRecord> records =
      sim::CollectFinishedKernels(plat.soc());
  ASSERT_GT(records.size(), 100u);
  std::map<int, MicroSeconds> last_end;
  // Records are in submission order; per unit, starts must be >= previous
  // end because execution is serial.
  for (const sim::KernelRecord& r : records) {
    auto it = last_end.find(r.unit);
    if (it != last_end.end()) {
      EXPECT_GE(r.start, it->second - 1e-6) << r.label;
    }
    last_end[r.unit] = std::max(last_end[r.unit], r.end);
  }
}

TEST_F(EngineScheduleTest, HostClockNeverBehindSimulator) {
  Platform plat;
  auto engine = CreateEngine("Hetero-tensor", &plat, &weights_);
  auto* base = static_cast<EngineBase*>(engine.get());
  engine->Generate(64, 2);
  EXPECT_GE(base->host_now(), plat.soc().now() - 1e-6);
}

}  // namespace
}  // namespace heterollm::core
