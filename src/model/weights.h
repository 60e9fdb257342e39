// Synthetic model weights in the W4A16 layout used by the engines.
//
// All projection weights are stored in [in_features, out_features]
// orientation so `activation [M, in] x weight [in, out]` is the natural op;
// engines may additionally permute operands to satisfy the NPU's
// order-sensitivity (§4).

#ifndef SRC_MODEL_WEIGHTS_H_
#define SRC_MODEL_WEIGHTS_H_

#include <vector>

#include "src/common/rng.h"
#include "src/model/model_config.h"
#include "src/tensor/quant.h"
#include "src/tensor/tensor.h"

namespace heterollm::model {

struct LayerWeights {
  tensor::QuantizedTensor wq;     // [hidden, q_dim]
  tensor::QuantizedTensor wk;     // [hidden, kv_dim]
  tensor::QuantizedTensor wv;     // [hidden, kv_dim]
  tensor::QuantizedTensor wo;     // [q_dim, hidden]
  tensor::QuantizedTensor w_gate; // [hidden, intermediate]
  tensor::QuantizedTensor w_up;   // [hidden, intermediate]
  tensor::QuantizedTensor w_down; // [intermediate, hidden]
  tensor::Tensor attn_norm;       // [1, hidden]
  tensor::Tensor ffn_norm;        // [1, hidden]
};

class ModelWeights {
 public:
  // Builds weights for `config`. In kCompute mode weights are synthesized
  // from `seed` straight into int4 codes and scales, with no FP32 copy
  // (keep the config tiny); in kSimulate mode they are shape-only.
  // `kernel_threads` is the number of threads that synthesize the weights
  // (tensor::KernelOptions semantics, 0 = hardware concurrency; synthesis
  // has one kernel, so 1 simply runs it inline); the resulting codes and
  // scales are bit-identical at every setting.
  static ModelWeights Create(const ModelConfig& config, ExecutionMode mode,
                             uint64_t seed = 1, int kernel_threads = 0);

  const ModelConfig& config() const { return config_; }
  ExecutionMode mode() const { return mode_; }
  const LayerWeights& layer(int i) const;
  const tensor::Tensor& final_norm() const { return final_norm_; }
  const tensor::QuantizedTensor& lm_head() const { return lm_head_; }

 private:
  ModelConfig config_;
  ExecutionMode mode_ = ExecutionMode::kSimulate;
  std::vector<LayerWeights> layers_;
  tensor::Tensor final_norm_;
  tensor::QuantizedTensor lm_head_;
};

}  // namespace heterollm::model

#endif  // SRC_MODEL_WEIGHTS_H_
