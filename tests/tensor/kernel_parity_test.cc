// Threaded-vs-scalar bit-exactness for every rewritten kernel.
//
// The contract (src/tensor/kernel_config.h): num_threads == 1 runs the seed
// repo's scalar loops (the oracle); any other setting runs the blocked,
// pooled kernels. Because each output element keeps the oracle's per-element
// FP accumulation order, the paths must agree to the last bit — every
// comparison below is MaxAbsDiff == 0, not a tolerance.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/strings.h"
#include "src/tensor/attention.h"
#include "src/tensor/kernel_config.h"
#include "src/tensor/ops.h"
#include "src/tensor/quant.h"

namespace heterollm::tensor {
namespace {

void ExpectBitExactAcrossThreads(const std::function<Tensor()>& fn) {
  Tensor oracle;
  {
    KernelThreadScope scope(1);
    oracle = fn();
  }
  // The process default is 0 = auto (hardware concurrency); running with no
  // override exercises the blocked path exactly as the engines see it.
  {
    Tensor blocked = fn();
    EXPECT_EQ(Tensor::MaxAbsDiff(oracle, blocked), 0.0f)
        << "auto thread count diverged from the scalar oracle";
  }
  for (int threads : {2, 3, 8}) {
    KernelThreadScope scope(threads);
    Tensor blocked = fn();
    EXPECT_EQ(Tensor::MaxAbsDiff(oracle, blocked), 0.0f)
        << "blocked kernel diverged from the scalar oracle at " << threads
        << " threads";
  }
}

// Shapes chosen to stress the tiling: rows/cols not divisible by the 8-row
// panels, 32-col tiles or chunk grains, including single-row decodes.
struct MatShape {
  int64_t m, n, k;
};
const MatShape kMatShapes[] = {
    {1, 37, 19}, {13, 64, 70}, {33, 96, 65}, {8, 32, 32}, {7, 5, 3}};

TEST(KernelParityTest, MatmulBitExactAcrossThreadCounts) {
  for (const MatShape& s : kMatShapes) {
    Rng rng(101);
    Tensor a = Tensor::Random(Shape({s.m, s.n}), rng);
    Tensor b = Tensor::Random(Shape({s.n, s.k}), rng);
    ExpectBitExactAcrossThreads([&] { return ops::Matmul(a, b); });
  }
}

TEST(KernelParityTest, MatmulColsMatchesSlicedMatmul) {
  Rng rng(102);
  Tensor a = Tensor::Random(Shape({9, 48}), rng);
  Tensor b = Tensor::Random(Shape({48, 50}), rng);
  for (int threads : {1, 2, 8}) {
    KernelThreadScope scope(threads);
    Tensor whole = ops::Matmul(a, b).SliceCols(5, 43);
    Tensor cols = ops::MatmulCols(a, b, 5, 43);
    EXPECT_EQ(Tensor::MaxAbsDiff(whole, cols), 0.0f);
  }
  ExpectBitExactAcrossThreads([&] { return ops::MatmulCols(a, b, 5, 43); });
}

TEST(KernelParityTest, MatmulQuantBitExactAcrossThreadCounts) {
  Rng rng(103);
  Tensor a = Tensor::Random(Shape({13, 70}), rng);
  // rows % group_size != 0: ragged final quantization group.
  QuantizedTensor w =
      QuantizedTensor::Quantize(Tensor::Random(Shape({70, 33}), rng, 0.1f), 32);
  ExpectBitExactAcrossThreads([&] { return ops::MatmulQuant(a, w); });
}

TEST(KernelParityTest, MatmulInt8BitExactAcrossThreadCounts) {
  Rng rng(104);
  Tensor a = Tensor::Random(Shape({13, 70}), rng, 0.2f);
  QuantizedTensor w =
      QuantizedTensor::Quantize(Tensor::Random(Shape({70, 33}), rng, 0.1f), 32);
  ExpectBitExactAcrossThreads([&] { return ops::MatmulInt8(a, w); });
}

TEST(KernelParityTest, RmsNormBitExactAcrossThreadCounts) {
  Rng rng(105);
  Tensor x = Tensor::Random(Shape({19, 67}), rng);
  Tensor gamma = Tensor::Random(Shape({1, 67}), rng);
  ExpectBitExactAcrossThreads([&] { return ops::RmsNorm(x, gamma); });
}

TEST(KernelParityTest, SiluSwiGluSoftmaxBitExactAcrossThreadCounts) {
  Rng rng(106);
  Tensor x = Tensor::Random(Shape({21, 53}), rng, 2.0f);
  Tensor y = Tensor::Random(Shape({21, 53}), rng);
  ExpectBitExactAcrossThreads([&] { return ops::Silu(x); });
  ExpectBitExactAcrossThreads([&] { return ops::SwiGlu(x, y); });
  ExpectBitExactAcrossThreads([&] { return ops::SoftmaxRows(x); });
  ExpectBitExactAcrossThreads([&] { return ops::Add(x, y); });
  ExpectBitExactAcrossThreads([&] { return ops::Mul(x, y); });
}

TEST(KernelParityTest, ApplyRopeBitExactAcrossThreadCounts) {
  Rng rng(107);
  const Tensor base = Tensor::Random(Shape({11, 24}), rng);
  auto roped = [&] {
    Tensor x = Tensor::FromData(base.shape(), base.data());
    ops::ApplyRope(x, /*pos_offset=*/3, /*head_dim=*/8);
    return x;
  };
  ExpectBitExactAcrossThreads(roped);
}

TEST(KernelParityTest, GqaAttentionBitExactAcrossThreadCounts) {
  Rng rng(108);
  // 6 query heads over 2 kv heads, 11 query rows against 18 cached
  // positions: (row, head) work items = 66, not divisible by any pool chunk.
  AttentionParams p{/*num_heads=*/6, /*num_kv_heads=*/2, /*head_dim=*/8,
                    /*q_pos_offset=*/7};
  Tensor q = Tensor::Random(Shape({11, 48}), rng);
  Tensor k = Tensor::Random(Shape({18, 16}), rng);
  Tensor v = Tensor::Random(Shape({18, 16}), rng);
  ExpectBitExactAcrossThreads([&] { return GqaAttention(q, k, v, p); });
}

TEST(KernelParityTest, FullGroupAndRaggedGroupQuantizeAgree) {
  // Quantization itself runs (group x 64-column) tiles in parallel; codes
  // and scales must be identical at every thread count, including a
  // ragged final group.
  Rng rng(109);
  Tensor w = Tensor::Random(Shape({70, 9}), rng, 0.1f);  // 70 % 32 != 0
  KernelThreadScope ref(1);
  QuantizedTensor q1 = QuantizedTensor::Quantize(w, 32);
  for (int threads : {2, 8}) {
    KernelThreadScope scope(threads);
    QuantizedTensor qn = QuantizedTensor::Quantize(w, 32);
    EXPECT_EQ(Tensor::MaxAbsDiff(q1.Dequantize(), qn.Dequantize()), 0.0f);
    for (int64_t g = 0; g < 3; ++g) {
      for (int64_t c = 0; c < 9; ++c) {
        EXPECT_EQ(q1.group_scale(g * 32, c), qn.group_scale(g * 32, c));
      }
    }
  }
}

bool SameCodesAndScales(const QuantizedTensor& a, const QuantizedTensor& b) {
  if (a.shape() != b.shape() || a.group_size() != b.group_size()) {
    return false;
  }
  const int64_t rows = a.shape().rows();
  const int64_t cols = a.shape().cols();
  const int64_t groups = (rows + a.group_size() - 1) / a.group_size();
  return std::equal(a.codes_data(), a.codes_data() + rows * cols,
                    b.codes_data()) &&
         std::equal(a.scales_data(), a.scales_data() + groups * cols,
                    b.scales_data(),
                    [](float x, float y) {
                      return std::bit_cast<uint32_t>(x) ==
                             std::bit_cast<uint32_t>(y);
                    });
}

TEST(KernelParityTest, SynthesizedWeightEqualsQuantizedRandomTensor) {
  // QuantizedTensor::Random draws each tile's Gaussians at its offset in
  // the stream: it must equal quantizing the serially drawn tensor byte for
  // byte, and leave the generator where Tensor::Random does, at every
  // thread count and on shapes ragged in both tile dimensions.
  const struct {
    int64_t rows, cols;
    int group;
  } shapes[] = {{70, 9, 32}, {64, 128, 32}, {33, 130, 8}, {1, 65, 32},
                {100, 200, 48}, {5, 64, 4}};
  for (const auto& sh : shapes) {
    const Shape shape({sh.rows, sh.cols});
    Rng serial(123);
    QuantizedTensor expected;
    {
      KernelThreadScope ref(1);
      expected = QuantizedTensor::Quantize(
          Tensor::Random(shape, serial, 0.1f), sh.group);
    }
    for (int threads : {1, 2, 3, 8, 0}) {
      KernelThreadScope scope(threads);
      Rng fused(123);
      const QuantizedTensor got =
          QuantizedTensor::Random(shape, fused, 0.1f, sh.group);
      EXPECT_TRUE(SameCodesAndScales(expected, got))
          << sh.rows << "x" << sh.cols << " group " << sh.group << " at "
          << threads << " threads";
      Rng after = serial;
      EXPECT_EQ(fused.NextU64(), after.NextU64());
    }
  }
}

// --- regression: the removed `aij == 0` inner-loop skip ---------------------

TEST(KernelParityTest, MatmulPropagatesNanThroughZeroActivation) {
  // 0 * NaN must stay NaN. The seed kernel skipped zero activations, so a
  // NaN weight paired with a zero activation silently vanished.
  Tensor a = Tensor::FromData(Shape({1, 2}), {0.0f, 1.0f});
  Tensor b = Tensor::FromData(
      Shape({2, 2}),
      {std::numeric_limits<float>::quiet_NaN(), 2.0f, 3.0f, 4.0f});
  for (int threads : {1, 2, 8}) {
    KernelThreadScope scope(threads);
    Tensor c = ops::Matmul(a, b);
    EXPECT_TRUE(std::isnan(c.At(0, 0)))
        << "0*NaN swallowed at num_threads=" << threads;
    EXPECT_EQ(c.At(0, 1), 4.0f);
  }
}

TEST(KernelParityTest, MatmulPropagatesInfThroughZeroActivation) {
  // 0 * inf = NaN per IEEE 754; the zero-skip turned it into 0.
  Tensor a = Tensor::FromData(Shape({1, 1}), {0.0f});
  Tensor b = Tensor::FromData(Shape({1, 1}),
                              {std::numeric_limits<float>::infinity()});
  for (int threads : {1, 2, 8}) {
    KernelThreadScope scope(threads);
    EXPECT_TRUE(std::isnan(ops::Matmul(a, b).At(0, 0)))
        << "0*inf swallowed at num_threads=" << threads;
  }
}

// --- regression: per-call std::pow in ApplyRope -----------------------------

TEST(KernelParityTest, RopeFrequencyTableMatchesDirectPow) {
  // The hoisted frequency table must reproduce pow(theta, -2d/head_dim)
  // exactly — same double-precision expression, evaluated once.
  const int head_dim = 32;
  const float theta = 10000.0f;
  Rng rng(110);
  Tensor x = Tensor::Random(Shape({3, 64}), rng);
  Tensor manual = Tensor::FromData(x.shape(), x.data());
  ops::ApplyRope(x, /*pos_offset=*/11, head_dim, theta);
  // Manual rotation with the pre-hoist per-element pow.
  for (int64_t i = 0; i < 3; ++i) {
    const double pos = 11 + static_cast<double>(i);
    for (int h = 0; h < 2; ++h) {
      for (int d = 0; d < head_dim / 2; ++d) {
        const double freq =
            std::pow(static_cast<double>(theta),
                     -2.0 * d / static_cast<double>(head_dim));
        const double angle = pos * freq;
        const float c = static_cast<float>(std::cos(angle));
        const float s = static_cast<float>(std::sin(angle));
        const int64_t c0 = static_cast<int64_t>(h) * head_dim + 2 * d;
        const float x0 = manual.At(i, c0);
        const float x1 = manual.At(i, c0 + 1);
        manual.Set(i, c0, x0 * c - x1 * s);
        manual.Set(i, c0 + 1, x0 * s + x1 * c);
      }
    }
  }
  EXPECT_EQ(Tensor::MaxAbsDiff(x, manual), 0.0f);
}

// --- regression: fractional byte_size for odd shapes ------------------------

TEST(KernelParityTest, ByteSizeIsWholeBytesForOddShapes) {
  // 33 rows in groups of 32: a full group (16 packed B/col) plus a ragged
  // 1-row group that still occupies a whole byte per column.
  QuantizedTensor q = QuantizedTensor::Deferred(Shape({33, 5}), 32);
  EXPECT_DOUBLE_EQ(q.byte_size(), (16.0 + 1.0) * 5 + 2.0 * 2 * 5);
  // Odd rows inside a single group: 7 rows pack into 4 bytes, not 3.5.
  QuantizedTensor q2 = QuantizedTensor::Deferred(Shape({7, 3}), 32);
  EXPECT_DOUBLE_EQ(q2.byte_size(), 4.0 * 3 + 2.0 * 1 * 3);
  EXPECT_EQ(std::fmod(q2.byte_size(), 1.0), 0.0);
  // Even shapes match the seed accounting exactly (0.5 B/element).
  QuantizedTensor q3 = QuantizedTensor::Deferred(Shape({64, 128}), 32);
  EXPECT_DOUBLE_EQ(q3.byte_size(), 0.5 * 64 * 128 + 2.0 * 2 * 128);
}

// --- fused W4A16 matmul vs dequantize-then-matmul --------------------------

// Bit-for-bit equality, with any NaN matching any NaN (the payload of a NaN
// is not part of the contract; where it appears is).
void ExpectSameBits(const Tensor& want, const Tensor& got,
                    const std::string& what) {
  ASSERT_EQ(want.shape(), got.shape()) << what;
  int64_t mismatches = 0;
  for (int64_t i = 0; i < want.numel(); ++i) {
    const float x = want.at(i);
    const float y = got.at(i);
    const bool same = std::isnan(x) ? std::isnan(y)
                                    : std::bit_cast<uint32_t>(x) ==
                                          std::bit_cast<uint32_t>(y);
    mismatches += same ? 0 : 1;
  }
  EXPECT_EQ(mismatches, 0) << what;
}

// Output widths around the fused kernel's 64-column tile and reduction
// lengths that leave a ragged final quantization group for every size.
struct QuantCase {
  int64_t n, k;
  int group;
};
const QuantCase kQuantCases[] = {
    {37, 19, 8}, {70, 70, 32}, {70, 129, 32}, {96, 64, 32}, {300, 77, 128}};

TEST(KernelParityTest, MatmulQuantMatchesDequantizedMatmulOnRaggedTiles) {
  Rng rng(111);
  for (const QuantCase& qc : kQuantCases) {
    const QuantizedTensor w = QuantizedTensor::Quantize(
        Tensor::Random(Shape({qc.n, qc.k}), rng, 0.1f), qc.group);
    const Tensor dense = w.Dequantize();
    for (int64_t m : {1, 3, 4, 8, 9, 13}) {
      const Tensor a = Tensor::Random(Shape({m, qc.n}), rng);
      for (int threads : {1, 2, 3, 8}) {
        KernelThreadScope scope(threads);
        ExpectSameBits(ops::Matmul(a, dense), ops::MatmulQuant(a, w),
                       StrFormat("m=%lld n=%lld k=%lld group=%d threads=%d",
                                 static_cast<long long>(m),
                                 static_cast<long long>(qc.n),
                                 static_cast<long long>(qc.k), qc.group,
                                 threads));
      }
    }
  }
}

TEST(KernelParityTest, MatmulQuantColsMatchesSlicedDequantizedMatmul) {
  Rng rng(112);
  const QuantizedTensor w = QuantizedTensor::Quantize(
      Tensor::Random(Shape({70, 150}), rng, 0.1f), 32);
  const Tensor dense = w.Dequantize();
  // Ranges inside one tile, across tile boundaries, ending at the ragged
  // last tile, the whole width and an empty range.
  const std::pair<int64_t, int64_t> ranges[] = {
      {5, 43}, {5, 134}, {64, 150}, {0, 150}, {17, 17}};
  for (int64_t m : {1, 4, 9}) {
    const Tensor a = Tensor::Random(Shape({m, 70}), rng);
    for (const auto& [lo, hi] : ranges) {
      for (int threads : {1, 2, 3, 8}) {
        KernelThreadScope scope(threads);
        const Tensor got = ops::MatmulQuantCols(a, w, lo, hi);
        const std::string what =
            StrFormat("m=%lld cols [%lld, %lld) threads=%d",
                      static_cast<long long>(m), static_cast<long long>(lo),
                      static_cast<long long>(hi), threads);
        ExpectSameBits(ops::Matmul(a, dense).SliceCols(lo, hi), got, what);
        ExpectSameBits(ops::MatmulCols(a, dense, lo, hi), got, what);
      }
    }
  }
}

TEST(KernelParityTest, MatmulQuantPropagatesNanAndInfLikeDenseMatmul) {
  // Weight row 2 is all zero (every code 0), so an Inf activation in
  // column 2 meets 0 * Inf = NaN in every output; a NaN activation poisons
  // its row whatever the weights. An Inf weight in column 5 makes that
  // column's group scale Inf, so its dequantized weights are NaN and the
  // all-zero activation row 6 must still yield NaN there (0 * NaN): the
  // removed `aij == 0` skip regression. Every NaN must come out exactly
  // where the dense kernel puts it.
  const float inf = std::numeric_limits<float>::infinity();
  Rng rng(113);
  Tensor wf = Tensor::Random(Shape({40, 70}), rng, 0.1f);
  for (int64_t c = 0; c < 70; ++c) {
    wf.Set(2, c, 0.0f);
  }
  wf.Set(10, 5, inf);
  const QuantizedTensor w = QuantizedTensor::Quantize(wf, 8);
  const Tensor dense = w.Dequantize();
  Tensor a = Tensor::Random(Shape({9, 40}), rng);
  a.Set(1, 2, inf);
  a.Set(4, 7, std::numeric_limits<float>::quiet_NaN());
  for (int64_t j = 0; j < 40; ++j) {
    a.Set(6, j, 0.0f);
  }
  for (int threads : {1, 2, 3, 8}) {
    KernelThreadScope scope(threads);
    const Tensor got = ops::MatmulQuant(a, w);
    ExpectSameBits(ops::Matmul(a, dense), got,
                   StrFormat("threads=%d", threads));
    for (int64_t c = 0; c < 70; ++c) {
      EXPECT_TRUE(std::isnan(got.At(1, c))) << "0*inf swallowed at " << c;
      EXPECT_TRUE(std::isnan(got.At(4, c))) << "NaN swallowed at " << c;
      EXPECT_EQ(std::isnan(got.At(6, c)), c == 5) << "zero row at " << c;
    }
    // Decode shapes (one row) take the column-parallel branch.
    for (int64_t r : {1, 6}) {
      const Tensor row = a.SliceRows(r, r + 1);
      ExpectSameBits(ops::Matmul(row, dense),
                     ops::MatmulQuantCols(row, w, 0, 70),
                     StrFormat("decode row %lld, threads=%d",
                               static_cast<long long>(r), threads));
    }
  }
}

}  // namespace
}  // namespace heterollm::tensor
