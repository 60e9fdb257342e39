// Deterministic pseudo-random number generation.
//
// All randomness in the library (synthetic weights, workload jitter, profiler
// noise) flows through `Rng` so that runs are reproducible from a single seed.
// The generator is SplitMix64: tiny state, excellent statistical quality for
// non-cryptographic use, and trivially forkable per subsystem. Its state is
// a counter (after k draws it is seed + k * kIncrement), so any draw of a
// stream can be reached in O(1) with Advance(); parallel generators use that
// to give every tile of a tensor the exact draws a serial fill would.

#ifndef SRC_COMMON_RNG_H_
#define SRC_COMMON_RNG_H_

#include <cstdint>

namespace heterollm {

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  // Draws consumed by one NextGaussian() call.
  static constexpr uint64_t kDrawsPerGaussian = 4;

  // Returns the next 64 pseudo-random bits.
  uint64_t NextU64() {
    uint64_t z = (state_ += kIncrement);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  // Uniform double in [0, 1).
  double NextUnit() {
    return static_cast<double>(NextU64() >> 11) * (1.0 / 9007199254740992.0);
  }

  // Uniform double in [lo, hi).
  double NextUniform(double lo, double hi) {
    return lo + (hi - lo) * NextUnit();
  }

  // Uniform integer in [0, n). Requires n > 0.
  uint64_t NextBelow(uint64_t n) { return NextU64() % n; }

  // Approximately standard-normal sample (sum of 4 uniforms, variance-scaled).
  // Adequate for weight initialization and timing jitter; not for statistics.
  double NextGaussian() {
    double sum = NextUnit() + NextUnit() + NextUnit() + NextUnit();
    return (sum - 2.0) * 1.7320508075688772;  // var(U4 sum)=1/3, scale sqrt(3)
  }

  // Fills out[0, n) with NextGaussian() * scale (rounded to float first),
  // in stream order; leaves the generator n * kDrawsPerGaussian draws on.
  void FillGaussian(float* out, int64_t n, float scale) {
    for (int64_t i = 0; i < n; ++i) {
      out[i] = static_cast<float>(NextGaussian()) * scale;
    }
  }

  // Skips `n` draws in O(1): the same state as `n` NextU64() calls (the
  // product wraps modulo 2^64 exactly as the counter does).
  void Advance(uint64_t n) { state_ += n * kIncrement; }

  // Returns an independent generator derived from this one's stream.
  Rng Fork() { return Rng(NextU64()); }

 private:
  static constexpr uint64_t kIncrement = 0x9E3779B97F4A7C15ULL;

  uint64_t state_;
};

}  // namespace heterollm

#endif  // SRC_COMMON_RNG_H_
