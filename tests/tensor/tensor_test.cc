#include "src/tensor/tensor.h"

#include <gtest/gtest.h>

namespace heterollm::tensor {
namespace {

TEST(TensorTest, ZerosIsAllZero) {
  Tensor t = Tensor::Zeros(Shape({2, 3}));
  for (int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_EQ(t.at(i), 0.0f);
  }
}

TEST(TensorTest, ByteSizeHonorsDtype) {
  EXPECT_DOUBLE_EQ(Tensor::Deferred(Shape({4, 4}), DType::kFp32).byte_size(),
                   64.0);
  EXPECT_DOUBLE_EQ(Tensor::Deferred(Shape({4, 4}), DType::kFp16).byte_size(),
                   32.0);
  EXPECT_DOUBLE_EQ(Tensor::Deferred(Shape({4, 4}), DType::kInt4).byte_size(),
                   8.0);
}

TEST(TensorTest, SetGetRoundTrip) {
  Tensor t = Tensor::Zeros(Shape({2, 2}));
  t.Set(1, 0, 3.5f);
  EXPECT_EQ(t.At(1, 0), 3.5f);
  EXPECT_EQ(t.at(2), 3.5f);  // row-major flat index
}

TEST(TensorTest, RandomIsDeterministicPerSeed) {
  Rng rng1(5);
  Rng rng2(5);
  Tensor a = Tensor::Random(Shape({3, 3}), rng1);
  Tensor b = Tensor::Random(Shape({3, 3}), rng2);
  EXPECT_EQ(Tensor::MaxAbsDiff(a, b), 0.0f);
}

TEST(TensorTest, RandomDrawsFourPerElementInRowMajorOrder) {
  // Callers reuse the generator after Tensor::Random, and the fused weight
  // synthesis jumps to element (r, c) at draw 4 * (r * cols + c).
  Rng rng(5);
  Tensor t = Tensor::Random(Shape({3, 5}), rng, 0.5f);
  Rng serial(5);
  for (int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_EQ(t.at(i), static_cast<float>(serial.NextGaussian()) * 0.5f);
  }
  Rng jumped(5);
  jumped.Advance(Rng::kDrawsPerGaussian * 15);
  EXPECT_EQ(rng.NextU64(), jumped.NextU64());
}

TEST(TensorTest, SliceRows) {
  Tensor t = Tensor::FromData(Shape({3, 2}), {1, 2, 3, 4, 5, 6});
  Tensor s = t.SliceRows(1, 3);
  EXPECT_EQ(s.shape(), Shape({2, 2}));
  EXPECT_EQ(s.At(0, 0), 3.0f);
  EXPECT_EQ(s.At(1, 1), 6.0f);
}

TEST(TensorTest, SliceCols) {
  Tensor t = Tensor::FromData(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  Tensor s = t.SliceCols(1, 2);
  EXPECT_EQ(s.shape(), Shape({2, 1}));
  EXPECT_EQ(s.At(0, 0), 2.0f);
  EXPECT_EQ(s.At(1, 0), 5.0f);
}

TEST(TensorTest, Transposed) {
  Tensor t = Tensor::FromData(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  Tensor tt = t.Transposed();
  EXPECT_EQ(tt.shape(), Shape({3, 2}));
  EXPECT_EQ(tt.At(0, 1), 4.0f);
  EXPECT_EQ(tt.At(2, 0), 3.0f);
}

TEST(TensorTest, TransposeTwiceIsIdentity) {
  Rng rng(9);
  Tensor t = Tensor::Random(Shape({5, 7}), rng);
  EXPECT_EQ(Tensor::MaxAbsDiff(t, t.Transposed().Transposed()), 0.0f);
}

TEST(TensorTest, ConcatRowsInvertsSliceRows) {
  Rng rng(11);
  Tensor t = Tensor::Random(Shape({6, 3}), rng);
  Tensor joined =
      Tensor::ConcatRows({t.SliceRows(0, 2), t.SliceRows(2, 6)});
  EXPECT_EQ(Tensor::MaxAbsDiff(t, joined), 0.0f);
}

TEST(TensorTest, ConcatColsInvertsSliceCols) {
  Rng rng(12);
  Tensor t = Tensor::Random(Shape({3, 8}), rng);
  Tensor joined =
      Tensor::ConcatCols({t.SliceCols(0, 5), t.SliceCols(5, 8)});
  EXPECT_EQ(Tensor::MaxAbsDiff(t, joined), 0.0f);
}

TEST(TensorTest, SumAddsElementwise) {
  Tensor a = Tensor::FromData(Shape({1, 2}), {1, 2});
  Tensor b = Tensor::FromData(Shape({1, 2}), {10, 20});
  Tensor s = Tensor::Sum({a, b});
  EXPECT_EQ(s.At(0, 0), 11.0f);
  EXPECT_EQ(s.At(0, 1), 22.0f);
}

TEST(TensorTest, DeferredHasNoData) {
  Tensor t = Tensor::Deferred(Shape({4, 4}));
  EXPECT_FALSE(t.has_data());
  EXPECT_EQ(t.numel(), 16);
}

TEST(TensorTest, DeferredPropagatesThroughSlicing) {
  Tensor t = Tensor::Deferred(Shape({4, 4}));
  EXPECT_FALSE(t.SliceRows(0, 2).has_data());
  EXPECT_FALSE(t.SliceCols(0, 2).has_data());
  EXPECT_FALSE(t.Transposed().has_data());
  EXPECT_EQ(t.SliceRows(0, 2).shape(), Shape({2, 4}));
}

TEST(TensorTest, DeferredPropagatesThroughConcat) {
  Tensor a = Tensor::Deferred(Shape({2, 4}));
  Tensor b = Tensor::Zeros(Shape({3, 4}));
  Tensor joined = Tensor::ConcatRows({a, b});
  EXPECT_FALSE(joined.has_data());
  EXPECT_EQ(joined.shape(), Shape({5, 4}));
}

}  // namespace
}  // namespace heterollm::tensor
