// NPU-only prefill strategies for misaligned sequence lengths (§5.2.2).
//
// Mobile NPUs only run static graphs, so an arbitrary prompt length must be
// reconciled with the pre-compiled shapes. The paper compares:
//   * Online-prepare — compile a fresh graph for every new length at
//     runtime (graph generation time dominates, Fig. 9);
//   * Padding — pad the prompt up to the nearest standard size (stepwise
//     latency, wasted compute);
//   * Pipe — multi-sequence-length cutting without GPU help: decompose into
//     standard segments, pad only the margin into the smallest graph;
//   * Chunked prefill — MLLM-NPU's approach: fixed-size chunks pushed
//     through the whole stack one at a time.
// Hetero-tensor (in hetero_engine.h) beats all four by offloading the
// dynamic margin to the GPU.
//
// All four run matmuls on the NPU and vector ops on the GPU, mirroring the
// paper's NPU-offload baselines.

#ifndef SRC_CORE_NPU_ONLY_STRATEGIES_H_
#define SRC_CORE_NPU_ONLY_STRATEGIES_H_

#include <string>

#include "src/core/engine_base.h"

namespace heterollm::core {

enum class MisalignPolicy { kOnlinePrepare, kPadding, kPipe, kChunked };

const char* MisalignPolicyName(MisalignPolicy policy);

class NpuOnlyEngine : public EngineBase {
 public:
  NpuOnlyEngine(MisalignPolicy policy, Platform* platform,
                const model::ModelWeights* weights,
                const EngineOptions& options);

  std::string name() const override;

  // Chunked prefill pushes a one-session prefill batch longer than a chunk
  // through the stack in fixed chunks; other policies, decode batches and
  // prefill batches that fit one chunk (a fused hybrid round too) use the
  // standard path.
  PhaseStats Execute(const Batch& batch) override;

  MisalignPolicy policy() const { return policy_; }

 protected:
  MatmulPlan PlanMatmul(MatmulSite site, const MatmulShape& shape,
                        Phase phase) override;
  GraphPolicy graph_policy() const override {
    return policy_ == MisalignPolicy::kOnlinePrepare ? GraphPolicy::kOnline
                                                     : GraphPolicy::kPreloaded;
  }

 private:
  MisalignPolicy policy_;
};

// MLLM-NPU-style INT-offload engine: chunked prefill, INT computation on
// the NPU in *both* phases, activations quantized (with outlier handling)
// on the CPU before every matmul. Fast, but — per the paper's Table 2 —
// its accuracy depends on activation sparsity/quantization, which is why
// HeteroLLM keeps FLOAT computation instead.
class MllmNpuEngine : public NpuOnlyEngine {
 public:
  MllmNpuEngine(Platform* platform, const model::ModelWeights* weights,
                const EngineOptions& options)
      : NpuOnlyEngine(MisalignPolicy::kChunked, platform, weights, options) {}

  std::string name() const override { return "MLLM-NPU"; }

 protected:
  hal::Precision MatmulPrecision(Phase phase) const override {
    (void)phase;
    return hal::Precision::kInt8;
  }
  bool int_activation_path() const override { return true; }
};

}  // namespace heterollm::core

#endif  // SRC_CORE_NPU_ONLY_STRATEGIES_H_
