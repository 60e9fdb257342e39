#include "src/tensor/quant.h"

#include <algorithm>
#include <cmath>

#include "src/common/math_util.h"
#include "src/tensor/kernel_config.h"

namespace heterollm::tensor {

namespace {

// A quantization tile is one group tall and this many columns wide (one
// cache line of codes per row).
constexpr int64_t kTileCols = 64;

// std::lround(x) for |x| < 2^23, as one add and a truncation: adding 0.5
// minus half an ulp, with x's sign, and truncating rounds half away from
// zero exactly (an exhaustive sweep over those floats agrees with lround).
inline int RoundHalfAway(float x) {
  return static_cast<int>(x + std::copysign(0.49999997f, x));
}

// Quantizes one tile held in `tile` (row stride kTileCols): one symmetric
// scale per column to `scales`, codes to `codes` (row stride `cols`).
// Every cell keeps the same per-element arithmetic whatever the tiling, so
// the partition never changes a code or a scale. The inner loops always
// run all kTileCols lanes (lanes past `n_cols` hold stale values and are
// never stored), which lets the compiler vectorize them.
void QuantizeTile(const float* tile, int64_t n_rows, int64_t n_cols,
                  int64_t cols, int8_t* codes, float* scales) {
  float max_abs[kTileCols] = {};
  for (int64_t r = 0; r < n_rows; ++r) {
    const float* row = tile + r * kTileCols;
    for (int64_t c = 0; c < kTileCols; ++c) {
      max_abs[c] = std::max(max_abs[c], std::fabs(row[c]));
    }
  }
  float scale[kTileCols];
  for (int64_t c = 0; c < kTileCols; ++c) {
    // Symmetric 4-bit range [-8, 7]; use 7 so +max is representable.
    scale[c] = max_abs[c] > 0 ? max_abs[c] / 7.0f : 1.0f;
  }
  std::copy_n(scale, n_cols, scales);
  int8_t row_codes[kTileCols];
  for (int64_t r = 0; r < n_rows; ++r) {
    const float* row = tile + r * kTileCols;
    for (int64_t c = 0; c < kTileCols; ++c) {
      // Clamping before rounding gives the codes of rounding first for
      // every finite quotient, and maps NaN to -8 and an infinite one
      // (a zero scale from subnormal inputs) to the nearest end.
      const float x = std::min(7.0f, std::max(-8.0f, row[c] / scale[c]));
      row_codes[c] = static_cast<int8_t>(RoundHalfAway(x));
    }
    std::copy_n(row_codes, n_cols, codes + r * cols);
  }
}

}  // namespace

QuantizedTensor QuantizedTensor::FromTiles(Shape shape, int group_size,
                                           const TileFill& fill) {
  HCHECK(shape.rank() == 2);
  HCHECK(group_size > 0);
  QuantizedTensor q = Deferred(std::move(shape), group_size);
  const int64_t rows = q.shape_.rows();
  const int64_t cols = q.shape_.cols();
  q.codes_.resize(static_cast<size_t>(rows * cols));
  q.scales_.resize(static_cast<size_t>(q.num_groups_ * cols));
  int8_t* codes = q.codes_.data();
  float* scales = q.scales_.data();
  const int64_t col_tiles = DivCeil(cols, kTileCols);
  KernelParallelFor(
      q.num_groups_ * col_tiles, /*grain=*/1, [&](int64_t t0, int64_t t1) {
        std::vector<float> tile(static_cast<size_t>(group_size * kTileCols));
        for (int64_t t = t0; t < t1; ++t) {
          const int64_t g = t / col_tiles;
          const int64_t r0 = g * group_size;
          const int64_t c0 = (t % col_tiles) * kTileCols;
          const int64_t n_rows = std::min<int64_t>(group_size, rows - r0);
          const int64_t n_cols = std::min(kTileCols, cols - c0);
          fill(r0, n_rows, c0, n_cols, tile.data());
          QuantizeTile(tile.data(), n_rows, n_cols, cols,
                       codes + r0 * cols + c0, scales + g * cols + c0);
        }
      });
  return q;
}

QuantizedTensor QuantizedTensor::Quantize(const Tensor& weight,
                                          int group_size) {
  HCHECK(weight.shape().rank() == 2);
  HCHECK(weight.has_data());
  const int64_t cols = weight.shape().cols();
  const float* wv = weight.data().data();
  return FromTiles(weight.shape(), group_size,
                   [&](int64_t r0, int64_t n_rows, int64_t c0, int64_t n_cols,
                       float* tile) {
                     for (int64_t r = 0; r < n_rows; ++r) {
                       std::copy_n(wv + (r0 + r) * cols + c0, n_cols,
                                   tile + r * kTileCols);
                     }
                   });
}

QuantizedTensor QuantizedTensor::Random(Shape shape, Rng& rng, float scale,
                                        int group_size) {
  HCHECK(shape.rank() == 2);
  const int64_t cols = shape.cols();
  const uint64_t numel = static_cast<uint64_t>(shape.numel());
  const Rng base = rng;
  // Element (r, c) is the (r * cols + c)-th Gaussian of the stream, as in
  // Tensor::Random's row-major fill: each tile row jumps straight there.
  QuantizedTensor q = FromTiles(
      std::move(shape), group_size,
      [&](int64_t r0, int64_t n_rows, int64_t c0, int64_t n_cols,
          float* tile) {
        for (int64_t r = 0; r < n_rows; ++r) {
          Rng row = base;
          row.Advance(Rng::kDrawsPerGaussian *
                      static_cast<uint64_t>((r0 + r) * cols + c0));
          row.FillGaussian(tile + r * kTileCols, n_cols, scale);
        }
      });
  rng.Advance(Rng::kDrawsPerGaussian * numel);
  return q;
}

QuantizedTensor QuantizedTensor::Deferred(Shape shape, int group_size) {
  HCHECK(shape.rank() == 2);
  QuantizedTensor q;
  q.shape_ = std::move(shape);
  q.group_size_ = group_size;
  q.num_groups_ = DivCeil(q.shape_.rows(), group_size);
  return q;
}

float QuantizedTensor::DequantizedAt(int64_t r, int64_t c) const {
  return static_cast<float>(code_at(r, c)) * group_scale(r, c);
}

int8_t QuantizedTensor::code_at(int64_t r, int64_t c) const {
  HCHECK_MSG(has_data(), "code access on deferred weight");
  const int64_t cols = shape_.cols();
  HCHECK(r >= 0 && r < shape_.rows() && c >= 0 && c < cols);
  return codes_[static_cast<size_t>(r * cols + c)];
}

float QuantizedTensor::group_scale(int64_t r, int64_t c) const {
  HCHECK_MSG(has_data(), "scale access on deferred weight");
  const int64_t cols = shape_.cols();
  HCHECK(r >= 0 && r < shape_.rows() && c >= 0 && c < cols);
  const int64_t g = r / group_size_;
  return scales_[static_cast<size_t>(g * cols + c)];
}

const int8_t* QuantizedTensor::codes_data() const {
  HCHECK_MSG(has_data(), "code access on deferred weight");
  return codes_.data();
}

const float* QuantizedTensor::scales_data() const {
  HCHECK_MSG(has_data(), "scale access on deferred weight");
  return scales_.data();
}

Tensor QuantizedTensor::Dequantize() const {
  HCHECK_MSG(has_data(), "dequantize of deferred weight");
  const int64_t rows = shape_.rows();
  const int64_t cols = shape_.cols();
  Tensor out = Tensor::Zeros(shape_, DType::kFp32);
  const int8_t* codes = codes_.data();
  const float* scales = scales_.data();
  const int group = group_size_;
  float* ov = out.mutable_data().data();
  KernelParallelFor(rows, /*grain=*/8, [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const float* gscales = scales + (r / group) * cols;
      for (int64_t c = 0; c < cols; ++c) {
        ov[r * cols + c] =
            static_cast<float>(codes[r * cols + c]) * gscales[c];
      }
    }
  });
  return out;
}

QuantizedActivation QuantizedActivation::Quantize(const Tensor& x) {
  HCHECK(x.shape().rank() == 2);
  HCHECK(x.has_data());
  QuantizedActivation q;
  q.shape_ = x.shape();
  const int64_t rows = x.shape().rows();
  const int64_t cols = x.shape().cols();
  q.codes_.resize(static_cast<size_t>(rows * cols));
  q.scales_.resize(static_cast<size_t>(rows));
  const float* xv = x.data().data();
  int8_t* codes = q.codes_.data();
  float* scales = q.scales_.data();
  KernelParallelFor(rows, /*grain=*/1, [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const float* row = xv + r * cols;
      float max_abs = 0;
      for (int64_t c = 0; c < cols; ++c) {
        max_abs = std::max(max_abs, std::fabs(row[c]));
      }
      const float scale = max_abs > 0 ? max_abs / 127.0f : 1.0f;
      scales[r] = scale;
      for (int64_t c = 0; c < cols; ++c) {
        int v = static_cast<int>(std::lround(row[c] / scale));
        codes[r * cols + c] =
            static_cast<int8_t>(Clamp<int64_t>(v, -127, 127));
      }
    }
  });
  return q;
}

Tensor QuantizedActivation::Dequantize() const {
  Tensor out = Tensor::Zeros(shape_, DType::kFp32);
  const int64_t cols = shape_.cols();
  for (int64_t r = 0; r < shape_.rows(); ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      out.Set(r, c,
              static_cast<float>(codes_[static_cast<size_t>(r * cols + c)]) *
                  scales_[static_cast<size_t>(r)]);
    }
  }
  return out;
}

int8_t QuantizedActivation::code(int64_t r, int64_t c) const {
  HCHECK(r >= 0 && r < shape_.rows() && c >= 0 && c < shape_.cols());
  return codes_[static_cast<size_t>(r * shape_.cols() + c)];
}

Bytes QuantizedTensor::byte_size() const {
  // Packed 4-bit codes, two per byte. Packing runs down the rows of one
  // column group (the GPTQ/AWQ layout), so a group with an odd number of
  // rows — the ragged final group when rows % group_size != 0 — still
  // occupies whole bytes per column: ceil(rows_in_group / 2). The seed
  // charged a flat 0.5 B/element, which reported fractional bytes for odd
  // element counts.
  const int64_t rows = shape_.rows();
  const int64_t cols = shape_.cols();
  int64_t packed_bytes_per_col = 0;
  for (int64_t g = 0; g < num_groups_; ++g) {
    const int64_t rows_in_group =
        std::min<int64_t>(group_size_, rows - g * group_size_);
    packed_bytes_per_col += DivCeil(rows_in_group, 2);
  }
  // One FP16 scale per (group, column).
  return static_cast<double>(packed_bytes_per_col * cols) +
         2.0 * static_cast<double>(num_groups_ * cols);
}

}  // namespace heterollm::tensor
