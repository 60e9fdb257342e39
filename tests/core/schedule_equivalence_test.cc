// Compiled-schedule timing goldens and replay properties.
//
// The engine once had a second, hand-coded layer loop next to the
// compiled-schedule replay. Before that loop was deleted, both paths were
// run on the scenarios below and agreed bit for bit; the goldens here are
// the values they produced: every step's simulated latency and a digest of
// the whole kernel timeline. Replay must keep reproducing them exactly.
// Numerics are checked separately, against an independent reference forward
// pass (engine_numerics_test.cc). The steady-state decode path must also
// never consult the solver or profiler again.

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/engine_registry.h"
#include "src/core/hetero_engine.h"
#include "src/graph/builder.h"
#include "src/graph/interpreter.h"
#include "src/graph/passes.h"
#include "src/model/kv_cache.h"

namespace heterollm::core {
namespace {

using model::ExecutionMode;
using model::KvCache;
using model::ModelConfig;
using model::ModelWeights;
using tensor::Shape;
using tensor::Tensor;

// Recorded timing of one scenario: every step's latency and a digest of the
// whole simulated kernel timeline.
struct Golden {
  std::vector<MicroSeconds> latencies;
  uint64_t digest;
};

// 64-bit FNV-1a over every finished kernel's label, unit and start/end time
// bit patterns, in submission order: any change to the kernel sequence or
// to a single simulated timestamp changes it.
uint64_t KernelDigest(sim::SocSimulator& soc) {
  soc.DrainAll();
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](const void* data, size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h = (h ^ bytes[i]) * 1099511628211ull;
    }
  };
  soc.VisitFinishedKernels([&](const std::string& label, sim::UnitId unit,
                               MicroSeconds start, MicroSeconds end, Bytes,
                               Flops) {
    const uint64_t len = label.size();
    mix(&len, sizeof(len));
    mix(label.data(), label.size());
    const int64_t u = unit;
    mix(&u, sizeof(u));
    uint64_t bits = 0;
    std::memcpy(&bits, &start, sizeof(bits));
    mix(&bits, sizeof(bits));
    std::memcpy(&bits, &end, sizeof(bits));
    mix(&bits, sizeof(bits));
  });
  return h;
}

// Latencies are compared bit for bit: the goldens are exact hex-float
// literals.
void ExpectGolden(const Golden& golden, const std::vector<MicroSeconds>& lat,
                  uint64_t digest, const std::string& what) {
  ASSERT_EQ(golden.latencies.size(), lat.size()) << what;
  for (size_t i = 0; i < lat.size(); ++i) {
    EXPECT_EQ(golden.latencies[i], lat[i])
        << what << " step " << i << ": got " << std::hexfloat << lat[i];
  }
  EXPECT_EQ(golden.digest, digest)
      << what << ": got 0x" << std::hex << digest << "ull";
}

// Prefill + two decode steps on a fresh engine/platform pair; checks the
// step latencies and kernel timeline against `golden`.
void CheckPrefillAndDecodes(const std::string& engine_name,
                            const Golden& golden) {
  const ModelConfig cfg = ModelConfig::Tiny();
  const ModelWeights weights =
      ModelWeights::Create(cfg, ExecutionMode::kCompute, 99);
  // Misaligned prompt length exercises padding / pipe / seq-cut plans.
  Rng rng(123);
  const Tensor prompt = Tensor::Random(Shape({37, cfg.hidden}), rng, 0.1f);
  const Tensor tok1 = Tensor::Random(Shape({1, cfg.hidden}), rng, 0.1f);
  const Tensor tok2 = Tensor::Random(Shape({1, cfg.hidden}), rng, 0.1f);

  Platform platform(PlatformOptionsFor(engine_name));
  platform.soc().RecordTimeline();  // KernelDigest walks the timeline
  auto engine = CreateEngine(engine_name, &platform, &weights);
  std::vector<MicroSeconds> latencies;
  latencies.push_back(engine->Prefill(prompt).latency);
  latencies.push_back(engine->DecodeStep(tok1).latency);
  latencies.push_back(engine->DecodeStep(tok2).latency);
  ExpectGolden(golden, latencies, KernelDigest(platform.soc()), engine_name);
}

const std::map<std::string, Golden>& EngineGoldens() {
  static const auto* goldens = new std::map<std::string, Golden>{
      {"llama.cpp",
       {{0x1.972166a920aap+6, 0x1.648d334643ecp+5, 0x1.64a043eb4bfcp+5},
        0xc1500e473e623285ull}},
      {"MLC",
       {{0x1.c1b7fa5a4dc1p+10, 0x1.be5efd7b3cc08p+10, 0x1.be5f212d7731p+10},
        0x3ab361986634552eull}},
      {"MNN-OpenCL",
       {{0x1.7162986f28bep+10, 0x1.6e5c02a58a994p+10, 0x1.6e5c22e91809cp+10},
        0xe2d556ad48971b10ull}},
      {"PPL-OpenCL",
       {{0x1.f208637bd05bp+8, 0x1.f208637bd05bp+8, 0x1.f208637bd05bp+8},
        0xaf70d1c37104183aull}},
      {"Hetero-layer",
       {{0x1.d0e2ff9e020bp+9, 0x1.f208637bd05bp+8, 0x1.f208637bd05bp+8},
        0xd95f5c6fe0510aadull}},
      {"Hetero-tensor",
       {{0x1.f208637bd05bp+8, 0x1.f208637bd05bp+8, 0x1.f208637bd05bp+8},
        0xaf70d1c37104183aull}},
      {"Online-prepare",
       {{0x1.3148adc21e84cp+13, 0x1.1cdb7af99b61cp+13, 0x1.7586fc73837ep+9},
        0x74c256f3add45555ull}},
      {"Padding",
       {{0x1.d0e2ff9e020bp+9, 0x1.7586dae59441p+9, 0x1.7586fc738382p+9},
        0xe884f011f01e0e02ull}},
      {"Pipe",
       {{0x1.2e717fcf01058p+10, 0x1.7586dae59441p+9, 0x1.7586fc738382p+9},
        0xafe0f441868e4af2ull}},
      {"Chunked",
       {{0x1.d0e2ff9e020bp+9, 0x1.7586dae59441p+9, 0x1.7586fc738382p+9},
        0xe884f011f01e0e02ull}},
  };
  return *goldens;
}

class ScheduleEquivalenceTest : public ::testing::TestWithParam<const char*> {
};

TEST_P(ScheduleEquivalenceTest, CompiledReplayMatchesLegacyLoopExactly) {
  const std::string engine_name = GetParam();
  CheckPrefillAndDecodes(engine_name, EngineGoldens().at(engine_name));
}

INSTANTIATE_TEST_SUITE_P(AllEngines, ScheduleEquivalenceTest,
                         ::testing::Values("llama.cpp", "MLC", "MNN-OpenCL",
                                           "PPL-OpenCL", "Hetero-layer",
                                           "Hetero-tensor", "Online-prepare",
                                           "Padding", "Pipe", "Chunked"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

// Runs `scenario` on a fresh simulate-mode Hetero-tensor engine over the
// tiny model and checks the per-step latencies it collects and the kernel
// timeline against `golden`.
template <typename Scenario>
void ExpectServingGolden(const Golden& golden, Scenario scenario) {
  const ModelConfig cfg = ModelConfig::Tiny();
  const ModelWeights weights =
      ModelWeights::Create(cfg, ExecutionMode::kSimulate);
  Platform platform(PlatformOptionsFor("Hetero-tensor"));
  platform.soc().RecordTimeline();  // KernelDigest walks the timeline
  auto engine = CreateEngine("Hetero-tensor", &platform, &weights);
  std::vector<MicroSeconds> latencies;
  scenario(*engine, cfg, latencies);
  ExpectGolden(golden, latencies, KernelDigest(platform.soc()),
               "Hetero-tensor");
}

// Prefills `n` sessions of 64 tokens each into fresh caches.
std::vector<KvCache*> PrefillSessions(
    EngineBase& engine, const ModelConfig& cfg, int n,
    std::vector<std::unique_ptr<KvCache>>& caches,
    std::vector<MicroSeconds>& latencies) {
  std::vector<KvCache*> batch;
  for (int i = 0; i < n; ++i) {
    caches.push_back(
        std::make_unique<KvCache>(cfg, 256, ExecutionMode::kSimulate));
    batch.push_back(caches.back().get());
    latencies.push_back(
        engine
            .Execute(Batch::Deferred(Phase::kPrefill, {batch.back()}, 64,
                                     cfg.hidden))
            .latency);
  }
  return batch;
}

// Continuous-batching decode: three sessions, three batched iterations.
TEST(ScheduleEquivalenceTest, ServingBatchedDecodeTimingMatchesLegacy) {
  const Golden golden = {{0x1.f208637bd05bp+8,
                          0x1.f208637bd05bp+8,
                          0x1.f208637bd05bp+8,
                          0x1.170c9539b8888p+9,
                          0x1.170c9539b8888p+9,
                          0x1.170c9539b8888p+9},
                         0xa61172c73c7d7bcull};
  ExpectServingGolden(golden, [](EngineBase& engine, const ModelConfig& cfg,
                                 std::vector<MicroSeconds>& latencies) {
    std::vector<std::unique_ptr<KvCache>> caches;
    const std::vector<KvCache*> batch =
        PrefillSessions(engine, cfg, 3, caches, latencies);
    for (int step = 0; step < 3; ++step) {
      latencies.push_back(
          engine.Execute(Batch::Deferred(Phase::kDecode, batch, 1, cfg.hidden))
              .latency);
    }
  });
}

// Batched speculative verify: two sessions, window 3 (four rows per slot).
TEST(ScheduleEquivalenceTest, ServingBatchedVerifyTimingMatchesLegacy) {
  const Golden golden = {{0x1.f208637bd05bp+8,
                          0x1.f208637bd05bp+8,
                          0x1.08218def416cp+9,
                          0x1.08218def416cp+9},
                         0x389ffd3be1b3f0eaull};
  ExpectServingGolden(golden, [](EngineBase& engine, const ModelConfig& cfg,
                                 std::vector<MicroSeconds>& latencies) {
    std::vector<std::unique_ptr<KvCache>> caches;
    const std::vector<KvCache*> batch =
        PrefillSessions(engine, cfg, 2, caches, latencies);
    for (int step = 0; step < 2; ++step) {
      latencies.push_back(
          engine.Execute(Batch::Deferred(Phase::kDecode, batch, 4, cfg.hidden))
              .latency);
    }
  });
}

// A 37-token prompt prefilled as two chunks, then one decode step.
TEST(ScheduleEquivalenceTest, ChunkedPrefillTimingMatchesLegacy) {
  const Golden golden = {{0x1.f208637bd05bp+8,
                          0x1.f208637bd05bp+8,
                          0x1.f208637bd05bp+8},
                         0x11fdc9e6e50d045ull};
  ExpectServingGolden(golden, [](EngineBase& engine, const ModelConfig& cfg,
                                 std::vector<MicroSeconds>& latencies) {
    KvCache cache(cfg, 256, ExecutionMode::kSimulate);
    // The second chunk starts at the cache length the first one committed.
    for (const int64_t rows : {20, 17}) {
      latencies.push_back(
          engine
              .Execute(Batch::Deferred(Phase::kPrefill, {&cache}, rows,
                                       cfg.hidden))
              .latency);
    }
    latencies.push_back(
        engine.Execute(Batch::Deferred(Phase::kDecode, {&cache}, 1, cfg.hidden))
            .latency);
  });
}

// A fused hybrid round: two sessions decoding and a third mid-prompt. The
// round runs as one 32-row prefill pass — a 26-row chunk slot first, then
// two 3-row verify slots — whose LM head covers the last 7 rows; a second
// round takes the prompt's ragged end with one decode row per session.
// Last, a plain 32-row chunk of a fourth prompt reuses the fused round's
// compiled body with a one-row logits tail.
TEST(ScheduleEquivalenceTest, FusedHybridRoundTimingIsPinned) {
  const Golden golden = {{0x1.f208637bd05bp+8,
                          0x1.f208637bd05bp+8,
                          0x1.f208637bd05bp+8,
                          0x1.171d5c31593e8p+9,
                          0x1.170c9539b8888p+9,
                          0x1.f208637bd05bp+8},
                         0x515ff334e2a490d4ull};
  ExpectServingGolden(golden, [](EngineBase& engine, const ModelConfig& cfg,
                                 std::vector<MicroSeconds>& latencies) {
    std::vector<std::unique_ptr<KvCache>> caches;
    const std::vector<KvCache*> decode =
        PrefillSessions(engine, cfg, 2, caches, latencies);
    KvCache prompt(cfg, 256, ExecutionMode::kSimulate);
    latencies.push_back(
        engine
            .Execute(Batch::Deferred(Phase::kPrefill, {&prompt}, 20,
                                     cfg.hidden))
            .latency);
    latencies.push_back(
        engine.Execute(Batch::Hybrid(&prompt, 26, decode, 3, cfg.hidden))
            .latency);
    latencies.push_back(
        engine.Execute(Batch::Hybrid(&prompt, 9, decode, 1, cfg.hidden))
            .latency);
    KvCache other(cfg, 256, ExecutionMode::kSimulate);
    latencies.push_back(
        engine
            .Execute(Batch::Deferred(Phase::kPrefill, {&other}, 32,
                                     cfg.hidden))
            .latency);
  });
}

// Fused-QKV execution (FuseQkv pass -> one matmul + column slices) must
// match the graph interpreter running the same optimized graph.
TEST(ScheduleEquivalenceTest, FusedQkvMatchesInterpreterOnOptimizedGraph) {
  const ModelConfig cfg = ModelConfig::Tiny();
  const ModelWeights weights =
      ModelWeights::Create(cfg, ExecutionMode::kCompute, 42);

  Rng rng(7);
  Tensor prompt = Tensor::Random(Shape({33, cfg.hidden}), rng, 0.1f);
  Tensor tok = Tensor::Random(Shape({1, cfg.hidden}), rng, 0.1f);

  // Reference: interpreter over the fully optimized (fused) graph. FuseQkv
  // needs inferred shapes for the column-slice widths; the slices are
  // column-based, so the same graph serves both prefill and decode rows.
  graph::Graph g = graph::BuildModelGraph(cfg);
  ASSERT_TRUE(graph::InferShapes(&g, cfg, 33).ok());
  graph::Graph fused = graph::OptimizeGraph(g).graph;
  graph::GraphInterpreter interp(&weights);
  auto ref_prefill = interp.Run(fused, prompt);
  ASSERT_TRUE(ref_prefill.ok());
  auto ref_decode = interp.Run(fused, tok);
  ASSERT_TRUE(ref_decode.ok());

  for (const char* name : {"PPL-OpenCL", "Hetero-tensor"}) {
    Platform platform(PlatformOptionsFor(name));
    EngineOptions opts;
    opts.fuse_qkv = true;
    auto engine = CreateEngine(name, &platform, &weights, opts);

    PhaseStats prefill = engine->Prefill(prompt);
    const auto& ref_out = ref_prefill.value();  // [hidden, logits all rows]
    const int64_t rows = ref_out[1].shape().rows();
    EXPECT_LT(Tensor::MaxAbsDiff(prefill.hidden, ref_out[0]), 1e-6f) << name;
    EXPECT_LT(Tensor::MaxAbsDiff(prefill.logits,
                                 ref_out[1].SliceRows(rows - 1, rows)),
              1e-6f)
        << name;

    PhaseStats decode = engine->DecodeStep(tok);
    const auto& ref_dec = ref_decode.value();
    EXPECT_LT(Tensor::MaxAbsDiff(decode.logits, ref_dec[1]), 1e-6f) << name;
  }
}

// The point of compiled schedules: after the first decode iteration at a
// given width/batch size, neither the solver nor the profiler is consulted
// again — plans replay from the schedule.
TEST(ScheduleEquivalenceTest, SolverIdleAfterFirstDecodeIteration) {
  const ModelConfig cfg = ModelConfig::Tiny();
  const ModelWeights weights =
      ModelWeights::Create(cfg, ExecutionMode::kSimulate);
  Platform platform(PlatformOptionsFor("Hetero-tensor"));
  HeteroEngine engine(HeteroLevel::kTensor, &platform, &weights);

  auto deferred = [&](int64_t rows) {
    return Tensor::Deferred(Shape({rows, cfg.hidden}), tensor::DType::kFp16);
  };
  engine.Prefill(deferred(64));
  engine.DecodeStep(deferred(1));  // compiles the width-1 decode schedule

  const int decides = engine.solver().decide_calls();
  const int queries = engine.profiler().query_count();
  EXPECT_GT(decides, 0);  // the first iteration did consult the solver
  for (int step = 0; step < 5; ++step) {
    engine.DecodeStep(deferred(1));
  }
  EXPECT_EQ(engine.solver().decide_calls(), decides);
  EXPECT_EQ(engine.profiler().query_count(), queries);

  // A new decode width is a new schedule: one more compile, then idle again.
  engine.DecodeStep(deferred(4));
  const int decides_w4 = engine.solver().decide_calls();
  EXPECT_GT(decides_w4, decides);
  engine.DecodeStep(deferred(4));
  EXPECT_EQ(engine.solver().decide_calls(), decides_w4);
}

TEST(ScheduleEquivalenceTest, SolverIdleAfterFirstServingBatchIteration) {
  const ModelConfig cfg = ModelConfig::Tiny();
  const ModelWeights weights =
      ModelWeights::Create(cfg, ExecutionMode::kSimulate);
  Platform platform(PlatformOptionsFor("Hetero-tensor"));
  HeteroEngine engine(HeteroLevel::kTensor, &platform, &weights);

  std::vector<std::unique_ptr<KvCache>> caches;
  std::vector<KvCache*> batch;
  for (int i = 0; i < 3; ++i) {
    caches.push_back(
        std::make_unique<KvCache>(cfg, 256, ExecutionMode::kSimulate));
    batch.push_back(caches.back().get());
    engine.Execute(
        Batch::Deferred(Phase::kPrefill, {batch.back()}, 32, cfg.hidden));
  }
  const Batch decode = Batch::Deferred(Phase::kDecode, batch, 1, cfg.hidden);

  engine.Execute(decode);  // compiles the batch-3 serving schedule
  const int decides = engine.solver().decide_calls();
  const int queries = engine.profiler().query_count();
  for (int step = 0; step < 4; ++step) {
    engine.Execute(decode);
  }
  EXPECT_EQ(engine.solver().decide_calls(), decides);
  EXPECT_EQ(engine.profiler().query_count(), queries);
}

}  // namespace
}  // namespace heterollm::core
