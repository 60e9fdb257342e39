#include "src/tensor/tensor.h"

#include <algorithm>
#include <cmath>

namespace heterollm::tensor {

Tensor Tensor::Zeros(Shape shape, DType dtype) {
  auto data = std::make_shared<std::vector<float>>(
      static_cast<size_t>(shape.numel()), 0.0f);
  return Tensor(std::move(shape), dtype, std::move(data));
}

Tensor Tensor::Random(Shape shape, Rng& rng, float scale, DType dtype) {
  auto data = std::make_shared<std::vector<float>>(
      static_cast<size_t>(shape.numel()));
  rng.FillGaussian(data->data(), shape.numel(), scale);
  return Tensor(std::move(shape), dtype, std::move(data));
}

Tensor Tensor::FromData(Shape shape, std::vector<float> values, DType dtype) {
  HCHECK_MSG(static_cast<int64_t>(values.size()) == shape.numel(),
             "value count does not match shape");
  auto data = std::make_shared<std::vector<float>>(std::move(values));
  return Tensor(std::move(shape), dtype, std::move(data));
}

Tensor Tensor::Deferred(Shape shape, DType dtype) {
  return Tensor(std::move(shape), dtype, nullptr);
}

int64_t Tensor::FlatIndex(int64_t r, int64_t c) const {
  HCHECK_MSG(shape_.rank() == 2, "2-D access on non-2-D tensor");
  HCHECK(r >= 0 && r < shape_.rows() && c >= 0 && c < shape_.cols());
  return r * shape_.cols() + c;
}

float Tensor::At(int64_t r, int64_t c) const { return at(FlatIndex(r, c)); }

void Tensor::Set(int64_t r, int64_t c, float v) { set(FlatIndex(r, c), v); }

float Tensor::at(int64_t i) const {
  HCHECK_MSG(data_ != nullptr, "element access on deferred tensor");
  HCHECK(i >= 0 && i < numel());
  return (*data_)[static_cast<size_t>(i)];
}

void Tensor::set(int64_t i, float v) {
  HCHECK_MSG(data_ != nullptr, "element access on deferred tensor");
  HCHECK(i >= 0 && i < numel());
  (*data_)[static_cast<size_t>(i)] = v;
}

const std::vector<float>& Tensor::data() const {
  HCHECK_MSG(data_ != nullptr, "payload access on deferred tensor");
  return *data_;
}

std::vector<float>& Tensor::mutable_data() {
  HCHECK_MSG(data_ != nullptr, "payload access on deferred tensor");
  return *data_;
}

Tensor Tensor::SliceRows(int64_t row_begin, int64_t row_end) const {
  HCHECK(shape_.rank() == 2);
  HCHECK(row_begin >= 0 && row_begin <= row_end && row_end <= shape_.rows());
  Shape out_shape({row_end - row_begin, shape_.cols()});
  if (!has_data()) {
    return Deferred(std::move(out_shape), dtype_);
  }
  const int64_t cols = shape_.cols();
  std::vector<float> out(static_cast<size_t>((row_end - row_begin) * cols));
  std::copy(data_->begin() + row_begin * cols, data_->begin() + row_end * cols,
            out.begin());
  return FromData(std::move(out_shape), std::move(out), dtype_);
}

Tensor Tensor::SliceCols(int64_t col_begin, int64_t col_end) const {
  HCHECK(shape_.rank() == 2);
  HCHECK(col_begin >= 0 && col_begin <= col_end && col_end <= shape_.cols());
  Shape out_shape({shape_.rows(), col_end - col_begin});
  if (!has_data()) {
    return Deferred(std::move(out_shape), dtype_);
  }
  const int64_t rows = shape_.rows();
  const int64_t cols = shape_.cols();
  const int64_t out_cols = col_end - col_begin;
  std::vector<float> out(static_cast<size_t>(rows * out_cols));
  for (int64_t r = 0; r < rows; ++r) {
    std::copy(data_->begin() + r * cols + col_begin,
              data_->begin() + r * cols + col_end,
              out.begin() + r * out_cols);
  }
  return FromData(std::move(out_shape), std::move(out), dtype_);
}

Tensor Tensor::Transposed() const {
  HCHECK(shape_.rank() == 2);
  Shape out_shape({shape_.cols(), shape_.rows()});
  if (!has_data()) {
    return Deferred(std::move(out_shape), dtype_);
  }
  const int64_t rows = shape_.rows();
  const int64_t cols = shape_.cols();
  std::vector<float> out(static_cast<size_t>(rows * cols));
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      out[static_cast<size_t>(c * rows + r)] =
          (*data_)[static_cast<size_t>(r * cols + c)];
    }
  }
  return FromData(std::move(out_shape), std::move(out), dtype_);
}

Tensor Tensor::ConcatRows(const std::vector<Tensor>& parts) {
  HCHECK(!parts.empty());
  const int64_t cols = parts[0].shape().cols();
  int64_t total_rows = 0;
  bool deferred = false;
  for (const Tensor& t : parts) {
    HCHECK(t.shape().rank() == 2);
    HCHECK_MSG(t.shape().cols() == cols, "column mismatch in ConcatRows");
    total_rows += t.shape().rows();
    deferred = deferred || !t.has_data();
  }
  Shape out_shape({total_rows, cols});
  if (deferred) {
    return Deferred(std::move(out_shape), parts[0].dtype());
  }
  std::vector<float> out;
  out.reserve(static_cast<size_t>(total_rows * cols));
  for (const Tensor& t : parts) {
    out.insert(out.end(), t.data().begin(), t.data().end());
  }
  return FromData(std::move(out_shape), std::move(out), parts[0].dtype());
}

Tensor Tensor::ConcatCols(const std::vector<Tensor>& parts) {
  HCHECK(!parts.empty());
  const int64_t rows = parts[0].shape().rows();
  int64_t total_cols = 0;
  bool deferred = false;
  for (const Tensor& t : parts) {
    HCHECK(t.shape().rank() == 2);
    HCHECK_MSG(t.shape().rows() == rows, "row mismatch in ConcatCols");
    total_cols += t.shape().cols();
    deferred = deferred || !t.has_data();
  }
  Shape out_shape({rows, total_cols});
  if (deferred) {
    return Deferred(std::move(out_shape), parts[0].dtype());
  }
  std::vector<float> out(static_cast<size_t>(rows * total_cols));
  int64_t col_offset = 0;
  for (const Tensor& t : parts) {
    const int64_t cols = t.shape().cols();
    for (int64_t r = 0; r < rows; ++r) {
      std::copy(t.data().begin() + r * cols, t.data().begin() + (r + 1) * cols,
                out.begin() + r * total_cols + col_offset);
    }
    col_offset += cols;
  }
  return FromData(std::move(out_shape), std::move(out), parts[0].dtype());
}

Tensor Tensor::Sum(const std::vector<Tensor>& parts) {
  HCHECK(!parts.empty());
  bool deferred = false;
  for (const Tensor& t : parts) {
    HCHECK_MSG(t.shape() == parts[0].shape(), "shape mismatch in Sum");
    deferred = deferred || !t.has_data();
  }
  if (deferred) {
    return Deferred(parts[0].shape(), parts[0].dtype());
  }
  Tensor out = Zeros(parts[0].shape(), parts[0].dtype());
  for (const Tensor& t : parts) {
    for (int64_t i = 0; i < out.numel(); ++i) {
      out.set(i, out.at(i) + t.at(i));
    }
  }
  return out;
}

float Tensor::MaxAbsDiff(const Tensor& a, const Tensor& b) {
  HCHECK(a.shape() == b.shape());
  HCHECK(a.has_data() && b.has_data());
  float max_diff = 0.0f;
  for (int64_t i = 0; i < a.numel(); ++i) {
    max_diff = std::max(max_diff, std::fabs(a.at(i) - b.at(i)));
  }
  return max_diff;
}

}  // namespace heterollm::tensor
