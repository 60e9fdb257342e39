#include "src/tensor/quant.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace heterollm::tensor {
namespace {

TEST(QuantTest, RoundTripErrorBounded) {
  Rng rng(21);
  Tensor w = Tensor::Random(Shape({64, 16}), rng, 0.05f);
  QuantizedTensor q = QuantizedTensor::Quantize(w, 32);
  Tensor back = q.Dequantize();
  // Symmetric 4-bit: error per element is at most scale/2, and the group
  // scale is max|w| in that group / 7.
  for (int64_t r = 0; r < 64; ++r) {
    for (int64_t c = 0; c < 16; ++c) {
      float max_abs = 0;
      int64_t g0 = (r / 32) * 32;
      for (int64_t rr = g0; rr < g0 + 32; ++rr) {
        max_abs = std::max(max_abs, std::fabs(w.At(rr, c)));
      }
      EXPECT_LE(std::fabs(back.At(r, c) - w.At(r, c)), max_abs / 7.0f / 2.0f + 1e-6f);
    }
  }
}

TEST(QuantTest, ExactForScaledIntegers) {
  // Values that are exact multiples of the group scale survive unchanged.
  std::vector<float> vals = {7, -8, 0, 1, 2, 3, -3, 5};
  Tensor w = Tensor::FromData(Shape({8, 1}), vals);
  QuantizedTensor q = QuantizedTensor::Quantize(w, 8);
  Tensor back = q.Dequantize();
  // scale = 8/7... the max is 8 -> scale 8/7, so values are NOT all exact.
  // Use a tensor whose max is 7 so scale == 1.
  std::vector<float> vals2 = {7, -7, 0, 1, 2, 3, -3, 5};
  Tensor w2 = Tensor::FromData(Shape({8, 1}), vals2);
  Tensor back2 = QuantizedTensor::Quantize(w2, 8).Dequantize();
  EXPECT_EQ(Tensor::MaxAbsDiff(w2, back2), 0.0f);
  (void)back;
}

TEST(QuantTest, RoundsHalfAwayFromZeroLikeLround) {
  // Max 7 makes the scale exactly 1, so each code is lround(value).
  const std::vector<float> vals = {7.0f,  0.5f,        -0.5f,       1.5f,
                                   -1.5f, 2.5f,        -2.5f,       6.5f,
                                   -6.5f, 0.49999997f, -0.49999997f,
                                   3.4999998f, -7.0f, 0.0f, -0.0f, 4.25f};
  const int64_t n = static_cast<int64_t>(vals.size());
  const QuantizedTensor q =
      QuantizedTensor::Quantize(Tensor::FromData(Shape({n, 1}), vals), 16);
  ASSERT_EQ(q.group_scale(0, 0), 1.0f);
  for (int64_t r = 0; r < n; ++r) {
    const long expected = std::clamp(std::lround(vals[r]), -8L, 7L);
    EXPECT_EQ(q.code_at(r, 0), expected) << "value " << vals[r];
  }
}

TEST(QuantTest, NonFiniteAndSubnormalGroupsClampTheQuotient) {
  // Column 0: an infinity makes the scale infinite; column 1: a NaN is
  // skipped by the max; column 2: subnormals whose scale rounds to 0.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float tiny = std::numeric_limits<float>::denorm_min();
  const std::vector<float> vals = {inf,  nan, tiny,  -inf, 0.5f, -tiny,
                                   1.0f, 2.0f, 0.0f, -2.0f, -1.0f, tiny};
  const QuantizedTensor q =
      QuantizedTensor::Quantize(Tensor::FromData(Shape({4, 3}), vals), 4);
  for (int64_t r = 0; r < 4; ++r) {
    for (int64_t c = 0; c < 3; ++c) {
      const float x = vals[static_cast<size_t>(r * 3 + c)] /
                      q.group_scale(r, c);
      // lround of the quotient clamped to [-8, 7]; NaN gives -8.
      const long expected =
          std::isnan(x) ? -8L
                        : std::lround(std::clamp(x, -8.0f, 7.0f));
      EXPECT_EQ(q.code_at(r, c), expected) << "row " << r << " col " << c;
    }
  }
  EXPECT_EQ(q.group_scale(0, 0), inf);
  EXPECT_EQ(q.group_scale(0, 1), 2.0f / 7.0f);
}

TEST(QuantTest, NanAmongFiniteValuesGetsTheLowestCode) {
  // The NaN is skipped by the group max, so the scale stays finite.
  const std::vector<float> vals = {1.0f, std::nanf(""), 7.0f, -3.0f};
  const QuantizedTensor q =
      QuantizedTensor::Quantize(Tensor::FromData(Shape({4, 1}), vals), 4);
  EXPECT_EQ(q.group_scale(0, 0), 1.0f);
  EXPECT_EQ(q.code_at(0, 0), 1);
  EXPECT_EQ(q.code_at(1, 0), -8);
  EXPECT_EQ(q.code_at(2, 0), 7);
  EXPECT_EQ(q.code_at(3, 0), -3);
}

TEST(QuantTest, ByteSizeIsHalfBytePerElementPlusScales) {
  QuantizedTensor q = QuantizedTensor::Deferred(Shape({64, 128}), 32);
  // 64*128 codes at 0.5 B + (64/32)*128 scales at 2 B.
  EXPECT_DOUBLE_EQ(q.byte_size(), 0.5 * 64 * 128 + 2.0 * 2 * 128);
}

TEST(QuantTest, DeferredHasNoCodes) {
  QuantizedTensor q = QuantizedTensor::Deferred(Shape({32, 32}));
  EXPECT_FALSE(q.has_data());
  EXPECT_EQ(q.shape(), Shape({32, 32}));
}

TEST(QuantTest, GroupBoundaryRespected) {
  // Two groups with wildly different magnitudes: the small group should not
  // lose precision to the large one.
  std::vector<float> vals(64, 0.0f);
  for (int i = 0; i < 32; ++i) {
    vals[static_cast<size_t>(i)] = 700.0f;  // group 0: huge
  }
  for (int i = 32; i < 64; ++i) {
    vals[static_cast<size_t>(i)] = 0.007f;  // group 1: tiny
  }
  Tensor w = Tensor::FromData(Shape({64, 1}), vals);
  Tensor back = QuantizedTensor::Quantize(w, 32).Dequantize();
  EXPECT_NEAR(back.At(40, 0), 0.007f, 0.0006f);
  EXPECT_NEAR(back.At(3, 0), 700.0f, 50.0f);
}

TEST(QuantTest, RaggedLastGroup) {
  // 40 rows with group size 32 -> second group has 8 rows.
  Rng rng(5);
  Tensor w = Tensor::Random(Shape({40, 4}), rng);
  QuantizedTensor q = QuantizedTensor::Quantize(w, 32);
  Tensor back = q.Dequantize();
  EXPECT_EQ(back.shape(), w.shape());
  // Round-trip error bounded by half a quantization step everywhere.
  for (int64_t i = 0; i < w.numel(); ++i) {
    EXPECT_LT(std::fabs(back.at(i) - w.at(i)), 0.5f);
  }
}

TEST(QuantTest, DequantizedAtMatchesFullDequantize) {
  Rng rng(31);
  Tensor w = Tensor::Random(Shape({64, 8}), rng);
  QuantizedTensor q = QuantizedTensor::Quantize(w, 32);
  Tensor full = q.Dequantize();
  for (int64_t r = 0; r < 64; r += 7) {
    for (int64_t c = 0; c < 8; ++c) {
      EXPECT_EQ(q.DequantizedAt(r, c), full.At(r, c));
    }
  }
}

TEST(QuantizedActivationTest, RoundTripBoundedByHalfStep) {
  Rng rng(61);
  Tensor x = Tensor::Random(Shape({8, 64}), rng, 0.2f);
  QuantizedActivation qa = QuantizedActivation::Quantize(x);
  Tensor back = qa.Dequantize();
  for (int64_t r = 0; r < 8; ++r) {
    float max_abs = 0;
    for (int64_t c = 0; c < 64; ++c) {
      max_abs = std::max(max_abs, std::fabs(x.At(r, c)));
    }
    for (int64_t c = 0; c < 64; ++c) {
      EXPECT_LE(std::fabs(back.At(r, c) - x.At(r, c)),
                max_abs / 127.0f / 2.0f + 1e-6f);
    }
  }
}

TEST(QuantizedActivationTest, RowsScaledIndependently) {
  Tensor x = Tensor::FromData(Shape({2, 2}), {100.0f, 50.0f, 0.001f, 0.0005f});
  QuantizedActivation qa = QuantizedActivation::Quantize(x);
  Tensor back = qa.Dequantize();
  // The tiny row keeps its relative precision despite the huge row.
  EXPECT_NEAR(back.At(1, 0), 0.001f, 1e-5f);
  EXPECT_NEAR(back.At(0, 0), 100.0f, 0.5f);
}

TEST(QuantizedActivationTest, CodesStayInInt8Range) {
  Rng rng(67);
  Tensor x = Tensor::Random(Shape({4, 32}), rng, 10.0f);
  QuantizedActivation qa = QuantizedActivation::Quantize(x);
  for (int64_t r = 0; r < 4; ++r) {
    for (int64_t c = 0; c < 32; ++c) {
      EXPECT_GE(qa.code(r, c), -127);
      EXPECT_LE(qa.code(r, c), 127);
    }
  }
}

}  // namespace
}  // namespace heterollm::tensor
