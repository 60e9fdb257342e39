#include "src/model/weights.h"

#include <cmath>

#include "src/tensor/kernel_config.h"

namespace heterollm::model {

namespace {

using tensor::QuantizedTensor;
using tensor::Shape;
using tensor::Tensor;

QuantizedTensor MakeWeight(int64_t in, int64_t out, ExecutionMode mode,
                           Rng& rng) {
  Shape shape({in, out});
  if (mode == ExecutionMode::kSimulate) {
    return QuantizedTensor::Deferred(std::move(shape));
  }
  // Xavier-ish scale keeps activations bounded through deep stacks.
  const float scale = 1.0f / std::sqrt(static_cast<float>(in));
  return QuantizedTensor::Random(std::move(shape), rng, scale);
}

Tensor MakeNorm(int64_t width, ExecutionMode mode, Rng& rng) {
  Shape shape({1, width});
  if (mode == ExecutionMode::kSimulate) {
    return Tensor::Deferred(std::move(shape), tensor::DType::kFp16);
  }
  // Gains near 1 with small jitter.
  Tensor g = Tensor::Zeros(shape, tensor::DType::kFp16);
  for (int64_t i = 0; i < width; ++i) {
    g.set(i, 1.0f + 0.05f * static_cast<float>(rng.NextGaussian()));
  }
  return g;
}

}  // namespace

ModelWeights ModelWeights::Create(const ModelConfig& config,
                                  ExecutionMode mode, uint64_t seed,
                                  int kernel_threads) {
  // Tensors draw from one stream in declaration order, each exactly
  // 4 * numel draws; within a weight, QuantizedTensor::Random jumps every
  // (group x column) tile to its own offset and synthesizes the tiles in
  // parallel under this scope, so no FP32 image of a weight is built and
  // the bytes do not depend on the thread count.
  tensor::KernelThreadScope kernel_scope(kernel_threads);
  if (mode == ExecutionMode::kCompute) {
    HCHECK_MSG(config.param_count() < 5e7,
               "compute-mode weights are for test-sized configs only");
  }
  ModelWeights w;
  w.config_ = config;
  w.mode_ = mode;
  Rng rng(seed);
  w.layers_.reserve(static_cast<size_t>(config.num_layers));
  for (int l = 0; l < config.num_layers; ++l) {
    LayerWeights lw;
    lw.wq = MakeWeight(config.hidden, config.q_dim(), mode, rng);
    lw.wk = MakeWeight(config.hidden, config.kv_dim(), mode, rng);
    lw.wv = MakeWeight(config.hidden, config.kv_dim(), mode, rng);
    lw.wo = MakeWeight(config.q_dim(), config.hidden, mode, rng);
    lw.w_gate = MakeWeight(config.hidden, config.intermediate, mode, rng);
    lw.w_up = MakeWeight(config.hidden, config.intermediate, mode, rng);
    lw.w_down = MakeWeight(config.intermediate, config.hidden, mode, rng);
    lw.attn_norm = MakeNorm(config.hidden, mode, rng);
    lw.ffn_norm = MakeNorm(config.hidden, mode, rng);
    w.layers_.push_back(std::move(lw));
  }
  w.final_norm_ = MakeNorm(config.hidden, mode, rng);
  w.lm_head_ = MakeWeight(config.hidden, config.vocab, mode, rng);
  return w;
}

const LayerWeights& ModelWeights::layer(int i) const {
  HCHECK(i >= 0 && i < static_cast<int>(layers_.size()));
  return layers_[static_cast<size_t>(i)];
}

}  // namespace heterollm::model
