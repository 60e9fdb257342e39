// Timing-behaviour tests in simulate mode on the paper's real model sizes.
// These pin the *mechanisms*: heterogeneous speedups, fast-sync gains,
// misaligned-length strategies, decode bandwidth aggregation, pool reuse.

#include <gtest/gtest.h>

#include "src/core/engine_registry.h"
#include "src/core/hetero_engine.h"
#include "src/core/npu_only_strategies.h"
#include "src/model/kv_cache.h"

namespace heterollm::core {
namespace {

using model::ExecutionMode;
using model::ModelConfig;
using model::ModelWeights;
using tensor::Shape;
using tensor::Tensor;

GenerationStats RunEngine(const std::string& engine_name, const ModelConfig& cfg,
                    int prompt, int decode, EngineOptions opts = {}) {
  ModelWeights w = ModelWeights::Create(cfg, ExecutionMode::kSimulate);
  Platform plat(PlatformOptionsFor(engine_name));
  auto engine = CreateEngine(engine_name, &plat, &w, opts);
  return engine->Generate(prompt, decode);
}

TEST(EngineBehaviorTest, HeteroLayerBeatsAllGpuBaselinesInPrefill) {
  const ModelConfig cfg = ModelConfig::Llama8B();
  const double hetero = RunEngine("Hetero-layer", cfg, 256, 0).prefill_tokens_per_s();
  for (const char* baseline : {"llama.cpp", "MLC", "MNN-OpenCL", "PPL-OpenCL"}) {
    const double base = RunEngine(baseline, cfg, 256, 0).prefill_tokens_per_s();
    EXPECT_GT(hetero / base, 2.5) << baseline;
  }
}

TEST(EngineBehaviorTest, TensorLevelBeatsLayerLevelPrefill) {
  // Fig. 13: Hetero-tensor outperforms Hetero-layer by ~30% on average.
  const ModelConfig cfg = ModelConfig::Llama8B();
  const double layer = RunEngine("Hetero-layer", cfg, 256, 0).prefill_tokens_per_s();
  const double tensor =
      RunEngine("Hetero-tensor", cfg, 256, 0).prefill_tokens_per_s();
  EXPECT_GT(tensor / layer, 1.15);
  EXPECT_LT(tensor / layer, 1.75);
}

TEST(EngineBehaviorTest, FastSyncImprovesPrefill) {
  // Fig. 15: fast synchronization improves Hetero-tensor prefill by
  // ~15-50% depending on model.
  const ModelConfig cfg = ModelConfig::Llama8B();
  EngineOptions slow;
  slow.fast_sync = false;
  const double with_fast =
      RunEngine("Hetero-tensor", cfg, 256, 0).prefill_tokens_per_s();
  const double without =
      RunEngine("Hetero-tensor", cfg, 256, 0, slow).prefill_tokens_per_s();
  EXPECT_GT(with_fast / without, 1.08);
  EXPECT_LT(with_fast / without, 2.0);
}

TEST(EngineBehaviorTest, FastSyncDominatesDecoding) {
  // Fig. 17: decoding is far more sync-sensitive — 2-4x on Llama-8B.
  const ModelConfig cfg = ModelConfig::Llama8B();
  EngineOptions slow;
  slow.fast_sync = false;
  const double with_fast =
      RunEngine("Hetero-tensor", cfg, 128, 12).decode_tokens_per_s();
  const double without =
      RunEngine("Hetero-tensor", cfg, 128, 12, slow).decode_tokens_per_s();
  EXPECT_GT(with_fast / without, 1.8);
  EXPECT_LT(with_fast / without, 6.0);
}

TEST(EngineBehaviorTest, DecodeHeteroBeatsGpuOnly) {
  // §5.3: +23.4% on Llama-8B, +8.5% on Llama-3B, +13.4% on InternLM-1.8B.
  for (const ModelConfig& cfg :
       {ModelConfig::Llama8B(), ModelConfig::InternLM1_8B()}) {
    const double gpu = RunEngine("PPL-OpenCL", cfg, 128, 12).decode_tokens_per_s();
    const double hetero =
        RunEngine("Hetero-tensor", cfg, 128, 12).decode_tokens_per_s();
    EXPECT_GT(hetero / gpu, 1.05) << cfg.name;
    EXPECT_LT(hetero / gpu, 1.40) << cfg.name;
  }
}

TEST(EngineBehaviorTest, LayerLevelDecodeMatchesGpuOnly) {
  // §5.3: Hetero-layer "always chooses the GPU in decoding layers and
  // performs similarly to PPL-OpenCL".
  const ModelConfig cfg = ModelConfig::Llama8B();
  const double ppl = RunEngine("PPL-OpenCL", cfg, 128, 12).decode_tokens_per_s();
  const double layer = RunEngine("Hetero-layer", cfg, 128, 12).decode_tokens_per_s();
  EXPECT_NEAR(layer / ppl, 1.0, 0.05);
}

TEST(EngineBehaviorTest, MisalignedStrategiesOrdering) {
  // Fig. 14 at sequence 525: Hetero-tensor < Pipe < Padding and
  // Online-prepare is the worst once graph generation is charged.
  const ModelConfig cfg = ModelConfig::Llama8B();
  const MicroSeconds hetero = RunEngine("Hetero-tensor", cfg, 525, 0).ttft();
  const MicroSeconds pipe = RunEngine("Pipe", cfg, 525, 0).ttft();
  const MicroSeconds padding = RunEngine("Padding", cfg, 525, 0).ttft();
  const MicroSeconds online = RunEngine("Online-prepare", cfg, 525, 0).ttft();
  EXPECT_LT(hetero, pipe);
  EXPECT_LT(pipe, padding);
  EXPECT_GT(online, hetero);
}

TEST(EngineBehaviorTest, PaddingStepwiseLatency) {
  // Padding latency depends only on the padded size: 300 and 500 both pad
  // to 512 and should cost nearly the same.
  const ModelConfig cfg = ModelConfig::Llama8B();
  const MicroSeconds t300 = RunEngine("Padding", cfg, 300, 0).ttft();
  const MicroSeconds t500 = RunEngine("Padding", cfg, 500, 0).ttft();
  EXPECT_NEAR(t300 / t500, 1.0, 0.12);
  // While Hetero-tensor scales with the true length.
  const MicroSeconds h300 = RunEngine("Hetero-tensor", cfg, 300, 0).ttft();
  const MicroSeconds h500 = RunEngine("Hetero-tensor", cfg, 500, 0).ttft();
  EXPECT_LT(h300, h500 * 0.85);
}

TEST(EngineBehaviorTest, OnlinePrepareChargesGraphGeneration) {
  // §5.2.2: at sequence 135 graph preparation is a large fraction of the
  // total latency (paper: 34.6% with 4 cached graph sets).
  const ModelConfig cfg = ModelConfig::Llama8B();
  ModelWeights w = ModelWeights::Create(cfg, ExecutionMode::kSimulate);
  Platform plat;
  auto engine = CreateEngine("Online-prepare", &plat, &w);
  Tensor prompt = Tensor::Deferred(Shape({135, cfg.hidden}));
  PhaseStats stats = engine->Prefill(prompt);
  EXPECT_GT(stats.graph_gen_time / stats.latency, 0.2);
  EXPECT_LT(stats.graph_gen_time / stats.latency, 0.7);

  // A second prompt of the same length reuses the graphs.
  engine->ResetSession();
  PhaseStats again = engine->Prefill(prompt);
  EXPECT_DOUBLE_EQ(again.graph_gen_time, 0.0);
  EXPECT_LT(again.latency, stats.latency);
}

TEST(EngineBehaviorTest, ChunkedPrefillSlowerThanHetero) {
  const ModelConfig cfg = ModelConfig::Llama8B();
  const MicroSeconds chunked = RunEngine("Chunked", cfg, 525, 0).ttft();
  const MicroSeconds hetero = RunEngine("Hetero-tensor", cfg, 525, 0).ttft();
  EXPECT_GT(chunked, hetero);
}

TEST(EngineBehaviorTest, ChunkSizeTradesUtilizationAgainstPadding) {
  // §5.2.2: MLLM-NPU's fixed chunk must be chosen carefully — small chunks
  // under-utilize the NPU and pay per-chunk overheads; the sweep shows the
  // monotone gain up to the prompt length.
  const ModelConfig cfg = ModelConfig::InternLM1_8B();
  ModelWeights w = ModelWeights::Create(cfg, ExecutionMode::kSimulate);
  double prev = 0;
  for (int64_t chunk : {64, 256, 1024}) {
    EngineOptions opts;
    opts.chunk_size = chunk;
    Platform plat(PlatformOptionsFor("Chunked"));
    auto engine = CreateEngine("Chunked", &plat, &w, opts);
    const double tok_s =
        engine->Generate(1024, 0).prefill_tokens_per_s();
    EXPECT_GT(tok_s, prev) << "chunk=" << chunk;
    prev = tok_s;
  }
}

// The Chunked engine splits every prefill batch into fixed chunks, also one
// that runs into a cache the caller owns (a serving session): a 600-row
// prompt at chunk 256 compiles and replays 256- and 88-row schedules.
TEST(EngineBehaviorTest, ChunkedEngineChunksPrefillBatches) {
  const ModelConfig cfg = ModelConfig::Tiny();
  ModelWeights w = ModelWeights::Create(cfg, ExecutionMode::kSimulate);
  Platform plat(PlatformOptionsFor("Chunked"));
  EngineOptions opts;
  opts.chunk_size = 256;
  auto engine = CreateEngine("Chunked", &plat, &w, opts);
  model::KvCache cache(cfg, 1024, ExecutionMode::kSimulate);
  const PhaseStats stats = engine->Execute(
      Batch::Deferred(Phase::kPrefill, {&cache}, 600, cfg.hidden));
  EXPECT_EQ(engine->schedule_compiles(), 2);
  EXPECT_EQ(stats.tokens, 600);
  EXPECT_EQ(cache.length(), 600);
}

// Schedules that differ only in logits rows share one compiled body: a
// 3-row single-session step with logits for its last row, a 3-slot decode
// batch and a 3-row verify all run the same decoder body, and only the
// LM-head tail is re-planned.
TEST(EngineBehaviorTest, LogitsRowCountsShareOneCompiledBody) {
  const ModelConfig cfg = ModelConfig::Tiny();
  ModelWeights w = ModelWeights::Create(cfg, ExecutionMode::kSimulate);
  Platform plat(PlatformOptionsFor("Hetero-tensor"));
  auto engine = CreateEngine("Hetero-tensor", &plat, &w);
  std::vector<std::unique_ptr<model::KvCache>> caches;
  std::vector<model::KvCache*> batch;
  for (int i = 0; i < 3; ++i) {
    caches.push_back(std::make_unique<model::KvCache>(
        cfg, 64, ExecutionMode::kSimulate));
    batch.push_back(caches.back().get());
  }
  Batch last_row = Batch::Deferred(Phase::kDecode, {batch[0]}, 3, cfg.hidden);
  last_row.logits_rows = 1;
  const PhaseStats last = engine->Execute(last_row);
  EXPECT_EQ(engine->schedule_compiles(), 1);
  EXPECT_EQ(last.logits.shape().rows(), 1);
  const PhaseStats all =
      engine->Execute(Batch::Deferred(Phase::kDecode, batch, 1, cfg.hidden));
  EXPECT_EQ(engine->schedule_compiles(), 1);  // new tail, same body
  EXPECT_EQ(all.tokens, 3);
  EXPECT_EQ(all.logits.shape().rows(), 3);
  Batch verify = Batch::Deferred(Phase::kDecode, {batch[1]}, 3, cfg.hidden);
  verify.logits_rows = 3;
  engine->Execute(verify);  // the 3-slot batch's schedule, cached
  EXPECT_EQ(engine->schedule_compiles(), 1);
  engine->Execute(Batch::Deferred(Phase::kPrefill, {batch[2]}, 3, cfg.hidden));
  EXPECT_EQ(engine->schedule_compiles(), 2);  // another phase: a new body
}

// A deferred decode-phase batch prices and returns logits for every row,
// whether one session verifies its drafts alone or several sessions share
// the pass; a deferred prefill batch returns logits for its last row only.
TEST(EngineBehaviorTest, DeferredDecodeGetsLogitsForEveryRow) {
  const ModelConfig cfg = ModelConfig::Tiny();
  ModelWeights w = ModelWeights::Create(cfg, ExecutionMode::kSimulate);
  Platform plat(PlatformOptionsFor("Hetero-tensor"));
  auto engine = CreateEngine("Hetero-tensor", &plat, &w);
  model::KvCache a(cfg, 64, ExecutionMode::kSimulate);
  model::KvCache b(cfg, 64, ExecutionMode::kSimulate);
  constexpr int64_t kWindow = 3;

  const Batch lone =
      Batch::Deferred(Phase::kDecode, {&a}, kWindow + 1, cfg.hidden);
  EXPECT_EQ(lone.logits_rows, kWindow + 1);
  EXPECT_EQ(engine->Execute(lone).logits.shape().rows(), kWindow + 1);
  const Batch shared =
      Batch::Deferred(Phase::kDecode, {&a, &b}, kWindow + 1, cfg.hidden);
  EXPECT_EQ(engine->Execute(shared).logits.shape().rows(),
            2 * (kWindow + 1));
  const Batch prefill =
      Batch::Deferred(Phase::kPrefill, {&a, &b}, 5, cfg.hidden);
  EXPECT_EQ(prefill.logits_rows, 1);
}

TEST(EngineBehaviorTest, SpeculativeWidthImprovesThroughput) {
  // A width-4 decode step produces 4 tokens in far less than 4x the time of
  // a width-1 step (the op is bandwidth-bound: weights stream once).
  const ModelConfig cfg = ModelConfig::Llama8B();
  ModelWeights w = ModelWeights::Create(cfg, ExecutionMode::kSimulate);
  Platform plat;
  auto engine = CreateEngine("Hetero-tensor", &plat, &w);
  engine->Prefill(Tensor::Deferred(Shape({256, cfg.hidden})));
  PhaseStats one = engine->DecodeStep(Tensor::Deferred(Shape({1, cfg.hidden})));
  PhaseStats four =
      engine->DecodeStep(Tensor::Deferred(Shape({4, cfg.hidden})));
  EXPECT_LT(four.latency, one.latency * 1.5);
}

TEST(EngineBehaviorTest, MemoryPoolSlotsReusedAcrossPhases) {
  const ModelConfig cfg = ModelConfig::Llama8B();
  ModelWeights w = ModelWeights::Create(cfg, ExecutionMode::kSimulate);
  Platform plat;
  auto engine = CreateEngine("Hetero-tensor", &plat, &w);
  const int64_t maps_after_setup = plat.pool().total_map_operations();
  engine->Generate(256, 8);
  engine->Generate(300, 8);
  // Steady state: no new mappings after session setup (§4.2).
  EXPECT_EQ(plat.pool().total_map_operations(), maps_after_setup);
}

TEST(EngineBehaviorTest, DecodeLatencyGrowsWithKvCache) {
  const ModelConfig cfg = ModelConfig::Llama8B();
  ModelWeights w = ModelWeights::Create(cfg, ExecutionMode::kSimulate);
  Platform plat;
  auto engine = CreateEngine("PPL-OpenCL", &plat, &w);
  engine->Prefill(Tensor::Deferred(Shape({64, cfg.hidden})));
  PhaseStats early =
      engine->DecodeStep(Tensor::Deferred(Shape({1, cfg.hidden})));
  engine->ResetSession();
  engine->Prefill(Tensor::Deferred(Shape({2048, cfg.hidden})));
  PhaseStats late =
      engine->DecodeStep(Tensor::Deferred(Shape({1, cfg.hidden})));
  EXPECT_GT(late.latency, early.latency * 1.02);
}

TEST(EngineBehaviorTest, PowerOrderingMatchesFig19) {
  // Hetero-layer draws the least, PPL-OpenCL the most.
  const ModelConfig cfg = ModelConfig::Llama8B();
  const double layer = RunEngine("Hetero-layer", cfg, 256, 0).avg_power_watts;
  const double tensor = RunEngine("Hetero-tensor", cfg, 256, 0).avg_power_watts;
  const double ppl = RunEngine("PPL-OpenCL", cfg, 256, 0).avg_power_watts;
  EXPECT_LT(layer, tensor);
  EXPECT_LT(tensor, ppl);
}

TEST(EngineBehaviorTest, HeteroEnergyEfficiencyFarAheadOfGpuOnly) {
  // Fig. 19: Hetero-tensor is ~5.9x more energy-efficient than PPL-OpenCL
  // for the same prefill work.
  const ModelConfig cfg = ModelConfig::Llama8B();
  GenerationStats tensor = RunEngine("Hetero-tensor", cfg, 256, 0);
  GenerationStats ppl = RunEngine("PPL-OpenCL", cfg, 256, 0);
  const double tensor_energy_per_token = tensor.energy / 256.0;
  const double ppl_energy_per_token = ppl.energy / 256.0;
  EXPECT_GT(ppl_energy_per_token / tensor_energy_per_token, 3.0);
}

TEST(EngineBehaviorTest, GraphGenTimeZeroForPreloadedEngines) {
  const ModelConfig cfg = ModelConfig::Llama8B();
  GenerationStats s = RunEngine("Hetero-tensor", cfg, 300, 4);
  EXPECT_DOUBLE_EQ(s.prefill.graph_gen_time, 0.0);
}

TEST(EngineBehaviorTest, PrefillScalesSublinearlyWithLength) {
  // Throughput (tok/s) should not collapse between 256 and 1024 (Fig. 13
  // shows roughly flat-to-improving trends for the hetero engines).
  const ModelConfig cfg = ModelConfig::Llama8B();
  const double s256 = RunEngine("Hetero-tensor", cfg, 256, 0).prefill_tokens_per_s();
  const double s1024 =
      RunEngine("Hetero-tensor", cfg, 1024, 0).prefill_tokens_per_s();
  EXPECT_GT(s1024 / s256, 0.6);
}

TEST(EngineBehaviorTest, SyncTelemetryRecordsWaits) {
  const ModelConfig cfg = ModelConfig::Llama8B();
  ModelWeights w = ModelWeights::Create(cfg, ExecutionMode::kSimulate);
  Platform plat;
  auto engine = CreateEngine("Hetero-tensor", &plat, &w);
  engine->Generate(256, 2);
  // Cross-backend execution syncs many times per layer.
  EXPECT_GT(plat.sync().wait_count(), cfg.num_layers * 4);
}

}  // namespace
}  // namespace heterollm::core
