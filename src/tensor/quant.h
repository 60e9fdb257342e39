// W4A16 weight-only group quantization.
//
// The paper stores weights as INT4 with per-group scales and dequantizes to
// FLOAT for computation ("W4A16"), avoiding the accuracy loss of activation
// quantization. Groups run along the reduction dimension (weight rows), the
// layout used by GPTQ/AWQ-style kernels.

#ifndef SRC_TENSOR_QUANT_H_
#define SRC_TENSOR_QUANT_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/tensor/tensor.h"

namespace heterollm::tensor {

// An immutable W4A16 weight: int4 codes plus per-group scales, and nothing
// else. Copies are deep. No FP32 image of the weight is kept: the compute
// kernels (ops::MatmulQuant) dequantize tiles in registers as they read
// them, and Dequantize() builds a fresh dense copy for callers that need
// one.
class QuantizedTensor {
 public:
  QuantizedTensor() = default;

  // Quantizes a materialized 2-D weight [N, K] with symmetric per-group
  // scales (group runs over `group_size` consecutive rows of one column).
  static QuantizedTensor Quantize(const Tensor& weight, int group_size = 32);

  // Quantize(Tensor::Random(shape, rng, scale), group_size), byte for byte,
  // without building the FP32 tensor: each (group x 64-column) tile draws
  // its Gaussians from `rng`'s stream at that tile's offset and quantizes
  // them in place, tiles in parallel under the kernel thread count. Like
  // Tensor::Random, leaves `rng` numel() * Rng::kDrawsPerGaussian draws on.
  static QuantizedTensor Random(Shape shape, Rng& rng, float scale,
                                int group_size = 32);

  // Shape-only quantized weight for simulate-mode models.
  static QuantizedTensor Deferred(Shape shape, int group_size = 32);

  // Reconstructs the FP32 weight (HCHECKs on deferred tensors).
  Tensor Dequantize() const;

  // Dequantizes a single element (row r, col c).
  float DequantizedAt(int64_t r, int64_t c) const;

  // Raw 4-bit code and its group scale (for integer-pipeline emulation).
  int8_t code_at(int64_t r, int64_t c) const;
  float group_scale(int64_t r, int64_t c) const;

  // Raw payloads for kernels: codes row-major [rows, cols], scales
  // row-major [num_groups, cols] (HCHECKs on deferred tensors).
  const int8_t* codes_data() const;
  const float* scales_data() const;

  const Shape& shape() const { return shape_; }
  int group_size() const { return group_size_; }
  bool has_data() const { return !codes_.empty(); }

  // Simulated storage: packed 4-bit codes (two per byte, rounded up per
  // column group — a ragged final group still occupies whole bytes) plus
  // FP16 scales per group.
  Bytes byte_size() const;

 private:
  // The one quantizer behind Quantize() and Random(): allocates the codes
  // and scales, then runs (group x 64-column) tiles in parallel. Each
  // tile's values come from `fill(r0, n_rows, c0, n_cols, tile)`, which
  // writes rows [r0, r0 + n_rows) x columns [c0, c0 + n_cols) into `tile`
  // (row stride 64) and must be safe to call concurrently.
  using TileFill = std::function<void(int64_t r0, int64_t n_rows, int64_t c0,
                                      int64_t n_cols, float* tile)>;
  static QuantizedTensor FromTiles(Shape shape, int group_size,
                                   const TileFill& fill);

  Shape shape_;
  int group_size_ = 32;
  // 4-bit signed codes in [-8, 7], one int8 per element (packing is a
  // storage-accounting concern only; byte_size() models the packed form).
  std::vector<int8_t> codes_;
  // Scales indexed by [group][col], row-major; one group covers
  // `group_size` consecutive rows.
  std::vector<float> scales_;
  int64_t num_groups_ = 0;
};

// Per-row symmetric INT8 activation quantization ("A8") — the datapath the
// INT-offload engines (MLLM-NPU, Qualcomm-AI) use, and precisely what
// HeteroLLM avoids to preserve accuracy. Provided so the accuracy cost of
// the INT pipeline is measurable, not asserted.
class QuantizedActivation {
 public:
  // Quantizes a materialized 2-D activation [M, N], one scale per row.
  static QuantizedActivation Quantize(const Tensor& x);

  Tensor Dequantize() const;

  int8_t code(int64_t r, int64_t c) const;
  float scale(int64_t r) const { return scales_[static_cast<size_t>(r)]; }
  const Shape& shape() const { return shape_; }

  // Raw payloads for kernels: codes row-major [rows, cols], one scale/row.
  const int8_t* codes_data() const { return codes_.data(); }
  const float* scales_data() const { return scales_.data(); }

 private:
  Shape shape_;
  std::vector<int8_t> codes_;
  std::vector<float> scales_;
};

}  // namespace heterollm::tensor

#endif  // SRC_TENSOR_QUANT_H_
