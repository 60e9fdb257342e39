// Compute-kernel microbenchmark: blocked multi-threaded kernels vs the
// scalar reference path on prefill-shaped work (kCompute hot path).
//
// Two gated families:
//   * compute_kernels.<op>.max_abs_diff — bit-exactness of the blocked path
//     against the scalar oracle, tolerance 0 (the threading contract);
//   * compute_kernels.<op>.speedup_8t — wall-clock speedup of the blocked
//     path at 8 threads, gated kHigher with a generous tolerance because
//     absolute speedups vary with the CI machine's core count (the blocked
//     path also wins single-threaded via register tiling, so the metric
//     stays well above 1 even on one core).

#include <algorithm>
#include <chrono>
#include <cmath>

#include "bench/bench_common.h"
#include "src/common/strings.h"
#include "src/common/table.h"
#include "src/tensor/attention.h"
#include "src/tensor/kernel_config.h"
#include "src/tensor/ops.h"
#include "src/tensor/quant.h"

namespace heterollm {
namespace {

namespace ops = tensor::ops;
using tensor::KernelThreadScope;
using tensor::QuantizedTensor;
using tensor::Shape;
using tensor::Tensor;

// Best-of-5 wall-clock seconds for one invocation of `fn` (minimum is the
// standard preemption-resistant estimator for microbenchmarks: scheduler
// noise only ever adds time).
template <typename Fn>
double TimeSeconds(const Fn& fn) {
  double best = 1e30;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best,
                    std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

struct KernelResult {
  double scalar_s = 0;
  double blocked_s = 0;
  float max_abs_diff = 0;
  double speedup() const {
    return blocked_s > 0 ? scalar_s / blocked_s : 0;
  }
};

template <typename Fn>
KernelResult Compare(const Fn& fn) {
  KernelResult r;
  Tensor oracle, blocked;
  {
    KernelThreadScope scope(1);
    r.scalar_s = TimeSeconds([&] { oracle = fn(); });
  }
  {
    KernelThreadScope scope(8);
    r.blocked_s = TimeSeconds([&] { blocked = fn(); });
  }
  r.max_abs_diff = Tensor::MaxAbsDiff(oracle, blocked);
  return r;
}

void PrintComputeKernels(report::BenchReport& report) {
  benchx::PrintHeader(report, "Compute kernels",
                      "blocked multi-threaded kernels vs the scalar "
                      "reference path (prefill-shaped, kCompute)");

  Rng rng(42);
  // Prefill-shaped: 256 prompt rows through a 896-wide projection (the
  // paper's Qwen2-0.5B hidden size).
  const Tensor a = Tensor::Random(Shape({256, 896}), rng);
  const Tensor b = Tensor::Random(Shape({896, 896}), rng);
  const QuantizedTensor w =
      QuantizedTensor::Quantize(Tensor::Random(Shape({896, 896}), rng, 0.1f));
  // 8 query heads over 2 kv heads, 128 prompt rows, head_dim 64.
  const tensor::AttentionParams ap{/*num_heads=*/8, /*num_kv_heads=*/2,
                                   /*head_dim=*/64, /*q_pos_offset=*/0};
  const Tensor q = Tensor::Random(Shape({128, 512}), rng);
  const Tensor kc = Tensor::Random(Shape({128, 128}), rng);
  const Tensor vc = Tensor::Random(Shape({128, 128}), rng);
  const Tensor gamma = Tensor::Random(Shape({1, 896}), rng);

  struct Row {
    const char* name;
    KernelResult r;
    double gate_tolerance;  // for the speedup metric
  };
  Row rows[] = {
      // Matmul's blocked path wins ~3x from register tiling alone, plus
      // core count; gate loosely so a small CI runner still passes.
      {"matmul_prefill", Compare([&] { return ops::Matmul(a, b); }), 0.6},
      {"gqa_attention",
       Compare([&] { return tensor::GqaAttention(q, kc, vc, ap); }), 0.6},
      {"matmul_int8", Compare([&] { return ops::MatmulInt8(a, w); }), 0.7},
      {"rmsnorm", Compare([&] { return ops::RmsNorm(a, gamma); }), 0.9},
      {"softmax_rows", Compare([&] { return ops::SoftmaxRows(a); }), 0.9},
  };

  TextTable table({"kernel", "scalar ms", "blocked(8t) ms", "speedup",
                   "max |diff|"});
  for (const Row& row : rows) {
    table.AddRow({row.name, StrFormat("%.3f", row.r.scalar_s * 1e3),
                  StrFormat("%.3f", row.r.blocked_s * 1e3),
                  StrFormat("%.2fx", row.r.speedup()),
                  StrFormat("%g", row.r.max_abs_diff)});
    const std::string prefix = std::string("compute_kernels.") + row.name;
    report.AddMetric(prefix + ".speedup_8t", row.r.speedup(),
                     benchx::HigherIsBetter("x", row.gate_tolerance));
    // Bit-exactness is the hard gate: tolerance 0 against a 0 baseline.
    report.AddMetric(prefix + ".max_abs_diff",
                     static_cast<double>(row.r.max_abs_diff),
                     benchx::Calibration("abs", 0.0));
  }
  benchx::EmitTable(report, "kernel_speedups", table);

  // Fused W4A16 matmul: MatmulQuant dequantizes the int4 codes in
  // registers, next to the dense kernel over the weight's FP32 image
  // dequantized outside the timer (what a cached image would cost per
  // call). The fused result must equal the dense one bit for bit.
  const Tensor w_dense = w.Dequantize();
  const Tensor a1 = Tensor::Random(Shape({1, 896}), rng);
  TextTable fused_table({"kernel", "m", "fused(8t) ms",
                         "dense pre-dequantized(8t) ms", "fused / dense",
                         "max |diff|"});
  double fused_m1_s = 0;
  for (const Tensor* act : {&a1, &a}) {
    const int64_t m = act->shape().rows();
    KernelThreadScope scope(8);
    Tensor fused, dense;
    const double fused_s =
        TimeSeconds([&] { fused = ops::MatmulQuant(*act, w); });
    const double dense_s =
        TimeSeconds([&] { dense = ops::Matmul(*act, w_dense); });
    const float diff = Tensor::MaxAbsDiff(dense, fused);
    if (m == 1) {
      fused_m1_s = fused_s;
    }
    fused_table.AddRow({"matmul_quant_fused",
                        StrFormat("%lld", static_cast<long long>(m)),
                        StrFormat("%.3f", fused_s * 1e3),
                        StrFormat("%.3f", dense_s * 1e3),
                        StrFormat("%.2f", dense_s > 0 ? fused_s / dense_s : 0),
                        StrFormat("%g", diff)});
    report.AddMetric(
        StrFormat("compute_kernels.matmul_quant_fused.m%lld.max_abs_diff",
                  static_cast<long long>(m)),
        static_cast<double>(diff), benchx::Calibration("abs", 0.0));
  }
  benchx::EmitTable(report, "matmul_quant_fused", fused_table);

  // Decode-shaped (m = 1) W4A16 matmul without a cached FP32 image: a
  // per-call Dequantize() + dense Matmul rebuilds the whole 896x896 weight
  // for every token; the fused kernel never builds it.
  KernelThreadScope scope(8);
  const double percall_s = TimeSeconds(
      [&] { benchmark::DoNotOptimize(ops::Matmul(a1, w.Dequantize())); });
  const double dequant_speedup = fused_m1_s > 0 ? percall_s / fused_m1_s : 0;
  std::printf(
      "Decode-shaped W4A16 matmul (m=1): %.3f ms with per-call Dequantize + "
      "Matmul, %.3f ms fused (%.2fx).\n",
      percall_s * 1e3, fused_m1_s * 1e3, dequant_speedup);
  report.AddMetric("compute_kernels.matmul_quant.cached_decode_speedup",
                   dequant_speedup, benchx::HigherIsBetter("x", 0.7));

  std::printf(
      "Bit-exactness: every blocked kernel must match the scalar oracle "
      "with max |diff| == 0 (gated at tolerance 0).\n");
}

void BM_MatmulBlocked(benchmark::State& state) {
  Rng rng(7);
  const Tensor a = Tensor::Random(Shape({state.range(0), 896}), rng);
  const Tensor b = Tensor::Random(Shape({896, 896}), rng);
  KernelThreadScope scope(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::Matmul(a, b));
  }
}
BENCHMARK(BM_MatmulBlocked)
    ->Args({256, 1})
    ->Args({256, 8})
    ->Args({1, 1})
    ->Args({1, 8});

void BM_MatmulQuant(benchmark::State& state) {
  Rng rng(9);
  const Tensor a = Tensor::Random(Shape({state.range(0), 896}), rng);
  const QuantizedTensor w =
      QuantizedTensor::Quantize(Tensor::Random(Shape({896, 896}), rng, 0.1f));
  KernelThreadScope scope(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::MatmulQuant(a, w));
  }
}
BENCHMARK(BM_MatmulQuant)
    ->Args({256, 1})
    ->Args({256, 8})
    ->Args({1, 1})
    ->Args({1, 8});

void BM_GqaAttentionBlocked(benchmark::State& state) {
  Rng rng(8);
  const tensor::AttentionParams ap{8, 2, 64, 0};
  const Tensor q = Tensor::Random(Shape({state.range(0), 512}), rng);
  const Tensor kc = Tensor::Random(Shape({state.range(0), 128}), rng);
  const Tensor vc = Tensor::Random(Shape({state.range(0), 128}), rng);
  KernelThreadScope scope(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::GqaAttention(q, kc, vc, ap));
  }
}
BENCHMARK(BM_GqaAttentionBlocked)->Args({128, 1})->Args({128, 8});

}  // namespace
}  // namespace heterollm

HETEROLLM_BENCH_MAIN("compute_kernels", heterollm::PrintComputeKernels)
