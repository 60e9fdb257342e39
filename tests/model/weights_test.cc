#include "src/model/weights.h"

#include <cstdint>

#include <gtest/gtest.h>

namespace heterollm::model {
namespace {

// FNV-1a over raw bytes, chained through `h`.
uint64_t Fnv1a(uint64_t h, const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h = (h ^ p[i]) * 0x100000001B3ULL;
  }
  return h;
}

uint64_t HashWeight(uint64_t h, const tensor::QuantizedTensor& w) {
  const size_t n = static_cast<size_t>(w.shape().numel());
  const size_t groups = static_cast<size_t>(
      (w.shape().rows() + w.group_size() - 1) / w.group_size());
  h = Fnv1a(h, w.codes_data(), n);
  return Fnv1a(h, w.scales_data(),
               groups * static_cast<size_t>(w.shape().cols()) * sizeof(float));
}

uint64_t HashNorm(uint64_t h, const tensor::Tensor& t) {
  return Fnv1a(h, t.data().data(), t.data().size() * sizeof(float));
}

// One digest over every tensor's codes and scales (norm gains included),
// in layer order.
uint64_t WeightDigest(const ModelWeights& w) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (int l = 0; l < w.config().num_layers; ++l) {
    const LayerWeights& lw = w.layer(l);
    for (const tensor::QuantizedTensor* q :
         {&lw.wq, &lw.wk, &lw.wv, &lw.wo, &lw.w_gate, &lw.w_up, &lw.w_down}) {
      h = HashWeight(h, *q);
    }
    h = HashNorm(h, lw.attn_norm);
    h = HashNorm(h, lw.ffn_norm);
  }
  h = HashNorm(h, w.final_norm());
  return HashWeight(h, w.lm_head());
}

// hidden and intermediate are not multiples of the 32-row quant group, and
// no matrix width is a multiple of 64 columns.
ModelConfig RaggedConfig() {
  return {"Ragged", 72, 100, 2, 3, 1, 24, 200};
}

struct DigestCase {
  ModelConfig config;
  uint64_t seed;
  uint64_t digest;
};

// Golden digests of the synthesized weights: any change to a single code,
// scale or norm gain, at any kernel thread count, moves them.
TEST(ModelWeightsTest, DigestsArePinnedAtEveryThreadCount) {
  const DigestCase cases[] = {
      {ModelConfig::Tiny(), 1, 0xF32B8134CEBEB1EDULL},
      {ModelConfig::TinyWide(), 42, 0x6EC42687D1A296B2ULL},
      {RaggedConfig(), 7, 0xC1BED9C38B2C9642ULL},
  };
  for (const DigestCase& c : cases) {
    for (int threads : {1, 2, 3, 0}) {
      const ModelWeights w = ModelWeights::Create(
          c.config, ExecutionMode::kCompute, c.seed, threads);
      EXPECT_EQ(WeightDigest(w), c.digest)
          << c.config.name << " seed " << c.seed << " kernel_threads "
          << threads << std::hex << " digest 0x" << WeightDigest(w);
    }
  }
}

TEST(ModelWeightsTest, ComputeModeMaterializes) {
  ModelWeights w =
      ModelWeights::Create(ModelConfig::Tiny(), ExecutionMode::kCompute);
  EXPECT_TRUE(w.layer(0).wq.has_data());
  EXPECT_TRUE(w.layer(1).w_down.has_data());
  EXPECT_TRUE(w.final_norm().has_data());
  EXPECT_TRUE(w.lm_head().has_data());
}

TEST(ModelWeightsTest, SimulateModeIsDeferred) {
  ModelWeights w =
      ModelWeights::Create(ModelConfig::Llama8B(), ExecutionMode::kSimulate);
  EXPECT_FALSE(w.layer(0).wq.has_data());
  EXPECT_FALSE(w.lm_head().has_data());
}

TEST(ModelWeightsTest, ShapesMatchConfig) {
  ModelConfig cfg = ModelConfig::TinyWide();
  ModelWeights w = ModelWeights::Create(cfg, ExecutionMode::kSimulate);
  const LayerWeights& lw = w.layer(0);
  EXPECT_EQ(lw.wq.shape(), tensor::Shape({cfg.hidden, cfg.q_dim()}));
  EXPECT_EQ(lw.wk.shape(), tensor::Shape({cfg.hidden, cfg.kv_dim()}));
  EXPECT_EQ(lw.wo.shape(), tensor::Shape({cfg.q_dim(), cfg.hidden}));
  EXPECT_EQ(lw.w_gate.shape(),
            tensor::Shape({cfg.hidden, cfg.intermediate}));
  EXPECT_EQ(lw.w_down.shape(),
            tensor::Shape({cfg.intermediate, cfg.hidden}));
  EXPECT_EQ(w.lm_head().shape(), tensor::Shape({cfg.hidden, cfg.vocab}));
}

TEST(ModelWeightsTest, DeterministicPerSeed) {
  ModelWeights a =
      ModelWeights::Create(ModelConfig::Tiny(), ExecutionMode::kCompute, 42);
  ModelWeights b =
      ModelWeights::Create(ModelConfig::Tiny(), ExecutionMode::kCompute, 42);
  EXPECT_EQ(tensor::Tensor::MaxAbsDiff(a.layer(0).wq.Dequantize(),
                                       b.layer(0).wq.Dequantize()),
            0.0f);
}

TEST(ModelWeightsTest, SeedsDiffer) {
  ModelWeights a =
      ModelWeights::Create(ModelConfig::Tiny(), ExecutionMode::kCompute, 1);
  ModelWeights b =
      ModelWeights::Create(ModelConfig::Tiny(), ExecutionMode::kCompute, 2);
  EXPECT_GT(tensor::Tensor::MaxAbsDiff(a.layer(0).wq.Dequantize(),
                                       b.layer(0).wq.Dequantize()),
            0.0f);
}

TEST(ModelWeightsDeathTest, ComputeModeRejectsBillionScale) {
  EXPECT_DEATH(
      ModelWeights::Create(ModelConfig::Llama8B(), ExecutionMode::kCompute),
      "test-sized");
}

}  // namespace
}  // namespace heterollm::model
