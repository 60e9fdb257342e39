// Host tensor with FP32 payload and a declared storage dtype.
//
// The payload (when materialized) is always FP32 — computation happens in
// float as in the paper's W4A16 setting. The storage dtype only affects
// `byte_size()`, which is what the simulator charges to the memory system.
// Tensors can also be *deferred* (shape/dtype only, no payload); the engines
// use deferred tensors in `ExecutionMode::kSimulate` so billion-parameter
// models can be benchmarked without allocating their weights.

#ifndef SRC_TENSOR_TENSOR_H_
#define SRC_TENSOR_TENSOR_H_

#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/tensor/dtype.h"
#include "src/tensor/shape.h"

namespace heterollm::tensor {

class Tensor {
 public:
  Tensor() = default;

  // Materialized zero tensor.
  static Tensor Zeros(Shape shape, DType dtype = DType::kFp32);

  // Materialized tensor with i.i.d. Gaussian(0, scale) entries, drawn
  // serially in row-major order; `rng` ends numel() *
  // Rng::kDrawsPerGaussian draws further on.
  static Tensor Random(Shape shape, Rng& rng, float scale = 1.0f,
                       DType dtype = DType::kFp32);

  // Materialized tensor wrapping explicit values (row-major).
  static Tensor FromData(Shape shape, std::vector<float> values,
                         DType dtype = DType::kFp32);

  // Shape-only tensor (no payload); used in simulate-only execution.
  static Tensor Deferred(Shape shape, DType dtype = DType::kFp32);

  const Shape& shape() const { return shape_; }
  DType dtype() const { return dtype_; }
  bool has_data() const { return data_ != nullptr; }
  int64_t numel() const { return shape_.numel(); }

  // Simulated storage footprint given the declared dtype.
  Bytes byte_size() const {
    return static_cast<double>(numel()) * DTypeSizeBytes(dtype_);
  }

  // Element access (2-D row-major). HCHECKs on deferred tensors.
  float At(int64_t r, int64_t c) const;
  void Set(int64_t r, int64_t c, float v);

  // Flat access.
  float at(int64_t i) const;
  void set(int64_t i, float v);

  // Raw payload access (HCHECKs on deferred tensors).
  const std::vector<float>& data() const;
  std::vector<float>& mutable_data();

  // Returns a copy of rows [row_begin, row_end) as a new tensor (2-D only).
  Tensor SliceRows(int64_t row_begin, int64_t row_end) const;

  // Returns a copy of columns [col_begin, col_end) as a new tensor (2-D only).
  Tensor SliceCols(int64_t col_begin, int64_t col_end) const;

  // Transposed copy (2-D only). Deferred tensors stay deferred.
  Tensor Transposed() const;

  // Stacks 2-D tensors vertically (matching column counts).
  static Tensor ConcatRows(const std::vector<Tensor>& parts);

  // Stacks 2-D tensors horizontally (matching row counts).
  static Tensor ConcatCols(const std::vector<Tensor>& parts);

  // Element-wise sum of same-shaped tensors.
  static Tensor Sum(const std::vector<Tensor>& parts);

  // Maximum |a - b| over all elements (tensors must match shapes and be
  // materialized).
  static float MaxAbsDiff(const Tensor& a, const Tensor& b);

 private:
  Tensor(Shape shape, DType dtype, std::shared_ptr<std::vector<float>> data)
      : shape_(std::move(shape)), dtype_(dtype), data_(std::move(data)) {}

  int64_t FlatIndex(int64_t r, int64_t c) const;

  Shape shape_;
  DType dtype_ = DType::kFp32;
  std::shared_ptr<std::vector<float>> data_;
};

}  // namespace heterollm::tensor

#endif  // SRC_TENSOR_TENSOR_H_
