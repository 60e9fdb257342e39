// CPU operator kernels for LLaMA-family models.
//
// Every op has a blocked, thread-parallel fast path and a reference scalar
// path selected by KernelOptions{num_threads} (see kernel_config.h); the
// two are bit-exact against each other at any thread count.
//
// Every op propagates deferred-ness: if any input lacks a payload the result
// is a shape-only tensor. This lets the engines run the exact same code path
// in `ExecutionMode::kSimulate` (timing only, billion-parameter shapes) and
// `ExecutionMode::kCompute` (real numerics, test-sized shapes).

#ifndef SRC_TENSOR_OPS_H_
#define SRC_TENSOR_OPS_H_

#include "src/tensor/quant.h"
#include "src/tensor/tensor.h"

namespace heterollm::tensor::ops {

// Dense matmul: a [M, N] x b [N, K] -> [M, K]. FP32 accumulation.
Tensor Matmul(const Tensor& a, const Tensor& b);

// Dense matmul restricted to output columns [col_begin, col_end) of b:
// returns [M, col_end - col_begin], bit-identical to
// Matmul(a, b).SliceCols(col_begin, col_end) without materializing the
// slice (partitioned matmul sites compute only the feature range they own).
Tensor MatmulCols(const Tensor& a, const Tensor& b, int64_t col_begin,
                  int64_t col_end);

// Fused matmul against a W4A16 weight: reads the int4 codes and group
// scales directly and dequantizes each weight tile in registers, so no FP32
// copy of the weight is ever built. FP32 accumulation (the "A16"
// activations are modelled as FP32 host math). Bit-identical to
// Matmul(a, w.Dequantize()) at every thread count.
Tensor MatmulQuant(const Tensor& a, const QuantizedTensor& w);

// MatmulQuant restricted to output columns [col_begin, col_end) of w:
// bit-identical to MatmulQuant(a, w).SliceCols(col_begin, col_end), for
// the column-partitioned matmul sites.
Tensor MatmulQuantCols(const Tensor& a, const QuantizedTensor& w,
                       int64_t col_begin, int64_t col_end);

// The INT pipeline: activations quantized to per-row INT8, weights kept as
// INT4 codes, integer accumulation per weight group, FP rescale. This is
// the computation MLLM-NPU/Qualcomm-AI run on the NPU; its output differs
// from the FLOAT path by the activation-quantization error the paper's
// Table 2 flags ("accuracy: decreased / depends on activation").
Tensor MatmulInt8(const Tensor& a, const QuantizedTensor& w);

// Row-wise RMS normalization with learned gain: x [M, N], gamma [1, N].
Tensor RmsNorm(const Tensor& x, const Tensor& gamma, float eps = 1e-5f);

// SiLU activation, element-wise.
Tensor Silu(const Tensor& x);

// SwiGLU combine: silu(gate) * up, element-wise (same shapes).
Tensor SwiGlu(const Tensor& gate, const Tensor& up);

// Row-wise softmax.
Tensor SoftmaxRows(const Tensor& x);

// Element-wise sum / product of same-shaped tensors.
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);

// Rotary position embedding applied in-place to q/k laid out as
// [M, num_heads * head_dim]; row i gets position `pos_offset + i`.
void ApplyRope(Tensor& x, int64_t pos_offset, int head_dim,
               float theta = 10000.0f);

}  // namespace heterollm::tensor::ops

#endif  // SRC_TENSOR_OPS_H_
