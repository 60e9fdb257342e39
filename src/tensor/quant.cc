#include "src/tensor/quant.h"

#include <algorithm>
#include <cmath>

#include "src/common/math_util.h"
#include "src/tensor/kernel_config.h"

namespace heterollm::tensor {

QuantizedTensor QuantizedTensor::Quantize(const Tensor& weight,
                                          int group_size) {
  HCHECK(weight.shape().rank() == 2);
  HCHECK(weight.has_data());
  HCHECK(group_size > 0);
  const int64_t rows = weight.shape().rows();
  const int64_t cols = weight.shape().cols();

  QuantizedTensor q;
  q.shape_ = weight.shape();
  q.group_size_ = group_size;
  q.num_groups_ = DivCeil(rows, group_size);
  q.codes_.resize(static_cast<size_t>(rows * cols));
  q.scales_.resize(static_cast<size_t>(q.num_groups_ * cols));

  const float* wv = weight.data().data();
  int8_t* codes = q.codes_.data();
  float* scales = q.scales_.data();
  const int64_t num_groups = q.num_groups_;
  // Columns are the parallel axis: every (group, column) cell is
  // independent and keeps the same per-cell order, so the partition does
  // not change a single code or scale.
  KernelParallelFor(cols, /*grain=*/8, [&](int64_t c0, int64_t c1) {
    for (int64_t g = 0; g < num_groups; ++g) {
      const int64_t r0 = g * group_size;
      const int64_t r1 = std::min(rows, r0 + group_size);
      for (int64_t c = c0; c < c1; ++c) {
        float max_abs = 0.0f;
        for (int64_t r = r0; r < r1; ++r) {
          max_abs = std::max(max_abs, std::fabs(wv[r * cols + c]));
        }
        // Symmetric 4-bit range [-8, 7]; use 7 so +max is representable.
        float scale = max_abs > 0 ? max_abs / 7.0f : 1.0f;
        scales[g * cols + c] = scale;
        for (int64_t r = r0; r < r1; ++r) {
          float v = wv[r * cols + c] / scale;
          int code = static_cast<int>(std::lround(v));
          code = static_cast<int>(Clamp<int64_t>(code, -8, 7));
          codes[r * cols + c] = static_cast<int8_t>(code);
        }
      }
    }
  });
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
