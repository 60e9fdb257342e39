#include "src/common/rng.h"

#include <gtest/gtest.h>

namespace heterollm {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  EXPECT_NE(a.NextU64(), b.NextU64());
}

TEST(RngTest, UnitRangeIsHalfOpen) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextUnit();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextUniform(3.0, 5.0);
    EXPECT_GE(v, 3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, GaussianHasRoughlyUnitMoments) {
  Rng rng(42);
  double sum = 0;
  double sum_sq = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    double v = rng.NextGaussian();
    sum += v;
    sum_sq += v * v;
  }
  double mean = sum / kN;
  double var = sum_sq / kN - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, ForkIsIndependentStream) {
  Rng parent(11);
  Rng child = parent.Fork();
  // The fork should not replay the parent's sequence.
  Rng parent_copy(11);
  parent_copy.NextU64();  // advance past the fork draw
  EXPECT_NE(child.NextU64(), parent_copy.NextU64());
}

TEST(RngTest, AdvanceEqualsThatManyDraws) {
  for (uint64_t n : {0ULL, 1ULL, 4ULL, 1000ULL}) {
    Rng stepped(17);
    for (uint64_t i = 0; i < n; ++i) {
      stepped.NextU64();
    }
    Rng jumped(17);
    jumped.Advance(n);
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(jumped.NextU64(), stepped.NextU64()) << "n = " << n;
    }
  }
}

TEST(RngTest, AdvanceWrapsLikeTheCounter) {
  // 2^64 - 1 draws ahead and one more is a full turn of the counter.
  Rng wrapped(17);
  wrapped.Advance(~0ULL);
  wrapped.NextU64();
  Rng fresh(17);
  EXPECT_EQ(wrapped.NextU64(), fresh.NextU64());
  // Jumps compose modulo 2^64.
  Rng a(5);
  a.Advance(~0ULL - 2);
  a.Advance(10);
  Rng b(5);
  b.Advance(7);
  EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

}  // namespace
}  // namespace heterollm
