#include "src/tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <type_traits>
#include <vector>

#include "src/tensor/kernel_config.h"

namespace heterollm::tensor::ops {

namespace {

// ---------------------------------------------------------------------------
// Dense matmul.
//
// Both paths compute O[i][c] = sum_j A[i][j] * B[j][c] with j strictly
// ascending per output element, so they agree bit-for-bit; see
// kernel_config.h for the threading/bit-exactness contract.
// ---------------------------------------------------------------------------

// Reference scalar path: the seed repo's axpy loop. (The seed also skipped
// aij == 0.0f terms — removed, because 0 x NaN/Inf must propagate NaN and
// the branch defeats vectorization; adding a true zero is otherwise a
// bitwise no-op on the accumulator.)
void MatmulRowsScalar(const float* a, int64_t a_stride, const float* b,
                      int64_t b_stride, float* o, int64_t o_stride,
                      int64_t row_begin, int64_t row_end, int64_t n,
                      int64_t kc) {
  for (int64_t i = row_begin; i < row_end; ++i) {
    const float* arow = a + i * a_stride;
    float* orow = o + i * o_stride;
    std::fill(orow, orow + kc, 0.0f);
    for (int64_t j = 0; j < n; ++j) {
      const float aij = arow[j];
      const float* brow = b + j * b_stride;
      for (int64_t c = 0; c < kc; ++c) {
        orow[c] += aij * brow[c];
      }
    }
  }
}

// Blocked path: an RB x CB output tile held in registers, reduction (j)
// innermost-sequential. Each B row is loaded once per RB output rows
// instead of once per row, which is what buys the single-core speedup.
template <int RB, int CB>
void MatmulMicro(const float* a, int64_t a_stride, const float* b,
                 int64_t b_stride, float* o, int64_t o_stride, int64_t n) {
  float acc[RB][CB] = {};
  for (int64_t j = 0; j < n; ++j) {
    const float* brow = b + j * b_stride;
    for (int r = 0; r < RB; ++r) {
      const float av = a[r * a_stride + j];
      for (int c = 0; c < CB; ++c) {
        acc[r][c] += av * brow[c];
      }
    }
  }
  for (int r = 0; r < RB; ++r) {
    for (int c = 0; c < CB; ++c) {
      o[r * o_stride + c] = acc[r][c];
    }
  }
}

// Column tail (kc % CB remainder), still register-accumulated per column.
template <int RB>
void MatmulMicroTail(const float* a, int64_t a_stride, const float* b,
                     int64_t b_stride, float* o, int64_t o_stride, int64_t n,
                     int64_t kc) {
  for (int64_t c = 0; c < kc; ++c) {
    float acc[RB] = {};
    for (int64_t j = 0; j < n; ++j) {
      const float bv = b[j * b_stride + c];
      for (int r = 0; r < RB; ++r) {
        acc[r] += a[r * a_stride + j] * bv;
      }
    }
    for (int r = 0; r < RB; ++r) {
      o[r * o_stride + c] = acc[r];
    }
  }
}

template <int RB>
void MatmulRowPanel(const float* a, int64_t a_stride, const float* b,
                    int64_t b_stride, float* o, int64_t o_stride, int64_t n,
                    int64_t kc) {
  constexpr int kColTile = 32;
  int64_t c = 0;
  for (; c + kColTile <= kc; c += kColTile) {
    MatmulMicro<RB, kColTile>(a, a_stride, b + c, b_stride, o + c, o_stride,
                              n);
  }
  if (c < kc) {
    MatmulMicroTail<RB>(a, a_stride, b + c, b_stride, o + c, o_stride, n,
                        kc - c);
  }
}

// Covers rows [row_begin, row_end) with 8-, then 4-, then 1-row panels,
// calling panel(std::integral_constant<int, RB>(), first_row) for each.
template <typename Panel>
void ForEachRowPanel(int64_t row_begin, int64_t row_end, const Panel& panel) {
  int64_t i = row_begin;
  for (; i + 8 <= row_end; i += 8) {
    panel(std::integral_constant<int, 8>(), i);
  }
  for (; i + 4 <= row_end; i += 4) {
    panel(std::integral_constant<int, 4>(), i);
  }
  for (; i < row_end; ++i) {
    panel(std::integral_constant<int, 1>(), i);
  }
}

void MatmulRowsTiled(const float* a, int64_t a_stride, const float* b,
                     int64_t b_stride, float* o, int64_t o_stride,
                     int64_t row_begin, int64_t row_end, int64_t n,
                     int64_t kc) {
  ForEachRowPanel(row_begin, row_end, [&](auto rb, int64_t i) {
    constexpr int kRows = decltype(rb)::value;
    MatmulRowPanel<kRows>(a + i * a_stride, a_stride, b, b_stride,
                          o + i * o_stride, o_stride, n, kc);
  });
}

// Shared driver: output columns [col_begin, col_end) of a [m, n] x [n, k]
// matmul, written to a compact [m, col_end - col_begin] payload. Rows are
// the parallel axis for prefill-shaped inputs; single-row (decode-shaped)
// calls parallelize over output-column blocks instead — either way each
// thread owns disjoint output elements with an unchanged reduction order.
void MatmulInto(const Tensor& a, const Tensor& b, int64_t col_begin,
                int64_t col_end, Tensor& out) {
  const int64_t m = a.shape().rows();
  const int64_t n = a.shape().cols();
  const int64_t k = b.shape().cols();
  const int64_t kc = col_end - col_begin;
  const float* av = a.data().data();
  const float* bv = b.data().data() + col_begin;
  float* ov = out.mutable_data().data();

  const ResolvedKernelConfig cfg = ResolveKernelConfig();
  if (cfg.reference) {
    MatmulRowsScalar(av, n, bv, k, ov, kc, 0, m, n, kc);
    return;
  }
  if (m >= 2 * cfg.threads || m >= kc) {
    KernelParallelFor(m, /*grain=*/8, [&](int64_t r0, int64_t r1) {
      MatmulRowsTiled(av, n, bv, k, ov, kc, r0, r1, n, kc);
    });
  } else {
    KernelParallelFor(kc, /*grain=*/32, [&](int64_t c0, int64_t c1) {
      MatmulRowsTiled(av, n, bv + c0, k, ov + c0, kc, 0, m, n, c1 - c0);
    });
  }
}

// ---------------------------------------------------------------------------
// Fused W4A16 matmul.
//
// Both paths compute O[i][c] = sum_j A[i][j] * (float(code[j][c]) *
// scale[j / group][c]) with j strictly ascending per output element: the
// dense kernel's order over exactly the values QuantizedTensor::Dequantize()
// writes, so the result is bit-exact against Matmul(a, w.Dequantize()) while
// only the int4 codes and group scales are ever read.
// ---------------------------------------------------------------------------

// A W4A16 weight's payload from some first output column on: codes
// [n, stride] and scales [num_groups, stride], both row-major.
struct QuantView {
  const int8_t* codes;
  const float* scales;
  int64_t stride;
  int64_t group;

  QuantView Shifted(int64_t c) const {
    return {codes + c, scales + c, stride, group};
  }
};

// Reference scalar path: MatmulRowsScalar with each weight element
// dequantized where it is read.
void MatmulQuantRowsScalar(const float* a, int64_t a_stride, QuantView w,
                           float* o, int64_t o_stride, int64_t m, int64_t n,
                           int64_t kc) {
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * a_stride;
    float* orow = o + i * o_stride;
    std::fill(orow, orow + kc, 0.0f);
    for (int64_t j = 0; j < n; ++j) {
      const float aij = arow[j];
      const int8_t* crow = w.codes + j * w.stride;
      const float* srow = w.scales + (j / w.group) * w.stride;
      for (int64_t c = 0; c < kc; ++c) {
        orow[c] += aij * (static_cast<float>(crow[c]) * srow[c]);
      }
    }
  }
}

// Blocked path: an RB x CB output tile as in MatmulMicro, with B-tile rows
// dequantized into CB-float register rows right before their rank-1
// updates. The group's scales are loaded once per group, not once per row.
// Rows are consumed in pairs, so each accumulator is loaded and stored once
// per two updates; the two updates still land in j order. CB = 64 makes
// every code-row read one full cache line. kFull tiles have width CB; the
// ragged last tile of a row panel passes its width as `cw`.
template <int RB, int CB, bool kFull>
void MatmulQuantMicro(const float* a, int64_t a_stride, QuantView w,
                      float* o, int64_t o_stride, int64_t n, int64_t cw) {
  const int64_t width = kFull ? CB : cw;
  float acc[RB][CB] = {};
  float scale[CB] = {};
  float b0[CB] = {};
  float b1[CB] = {};
  for (int64_t j0 = 0; j0 < n; j0 += w.group) {
    const float* srow = w.scales + (j0 / w.group) * w.stride;
    for (int64_t c = 0; c < width; ++c) {
      scale[c] = srow[c];
    }
    const int64_t j1 = std::min(n, j0 + w.group);
    int64_t j = j0;
    for (; j + 2 <= j1; j += 2) {
      const int8_t* c0 = w.codes + j * w.stride;
      const int8_t* c1 = c0 + w.stride;
      for (int64_t c = 0; c < width; ++c) {
        b0[c] = static_cast<float>(c0[c]) * scale[c];
        b1[c] = static_cast<float>(c1[c]) * scale[c];
      }
      for (int r = 0; r < RB; ++r) {
        const float a0 = a[r * a_stride + j];
        const float a1 = a[r * a_stride + j + 1];
        for (int64_t c = 0; c < width; ++c) {
          const float x = acc[r][c] + a0 * b0[c];
          acc[r][c] = x + a1 * b1[c];
        }
      }
    }
    if (j < j1) {
      const int8_t* c0 = w.codes + j * w.stride;
      for (int64_t c = 0; c < width; ++c) {
        b0[c] = static_cast<float>(c0[c]) * scale[c];
      }
      for (int r = 0; r < RB; ++r) {
        const float a0 = a[r * a_stride + j];
        for (int64_t c = 0; c < width; ++c) {
          acc[r][c] += a0 * b0[c];
        }
      }
    }
  }
  for (int r = 0; r < RB; ++r) {
    for (int64_t c = 0; c < width; ++c) {
      o[r * o_stride + c] = acc[r][c];
    }
  }
}

constexpr int64_t kQuantColTile = 64;

template <int RB>
void MatmulQuantRowPanel(const float* a, int64_t a_stride, QuantView w,
                         float* o, int64_t o_stride, int64_t n, int64_t kc) {
  int64_t c = 0;
  for (; c + kQuantColTile <= kc; c += kQuantColTile) {
    MatmulQuantMicro<RB, kQuantColTile, true>(a, a_stride, w.Shifted(c),
                                              o + c, o_stride, n,
                                              kQuantColTile);
  }
  if (c < kc) {
    MatmulQuantMicro<RB, kQuantColTile, false>(a, a_stride, w.Shifted(c),
                                               o + c, o_stride, n, kc - c);
  }
}

void MatmulQuantRowsTiled(const float* a, int64_t a_stride, QuantView w,
                          float* o, int64_t o_stride, int64_t row_begin,
                          int64_t row_end, int64_t n, int64_t kc) {
  ForEachRowPanel(row_begin, row_end, [&](auto rb, int64_t i) {
    constexpr int kRows = decltype(rb)::value;
    MatmulQuantRowPanel<kRows>(a + i * a_stride, a_stride, w,
                               o + i * o_stride, o_stride, n, kc);
  });
}

// MatmulInto for a quantized B. Decode-shaped calls split the output
// columns into whole 64-column tiles, so only the last tile is ragged.
void MatmulQuantInto(const Tensor& a, const QuantizedTensor& b,
                     int64_t col_begin, int64_t col_end, Tensor& out) {
  const int64_t m = a.shape().rows();
  const int64_t n = a.shape().cols();
  const int64_t kc = col_end - col_begin;
  const float* av = a.data().data();
  const QuantView w = QuantView{b.codes_data(), b.scales_data(),
                                b.shape().cols(), b.group_size()}
                          .Shifted(col_begin);
  float* ov = out.mutable_data().data();

  const ResolvedKernelConfig cfg = ResolveKernelConfig();
  if (cfg.reference) {
    MatmulQuantRowsScalar(av, n, w, ov, kc, m, n, kc);
    return;
  }
  if (m >= 2 * cfg.threads || m >= kc) {
    KernelParallelFor(m, /*grain=*/8, [&](int64_t r0, int64_t r1) {
      MatmulQuantRowsTiled(av, n, w, ov, kc, r0, r1, n, kc);
    });
  } else {
    const int64_t tiles = (kc + kQuantColTile - 1) / kQuantColTile;
    KernelParallelFor(tiles, /*grain=*/1, [&](int64_t t0, int64_t t1) {
      const int64_t c0 = t0 * kQuantColTile;
      const int64_t c1 = std::min(kc, t1 * kQuantColTile);
      MatmulQuantRowsTiled(av, n, w.Shifted(c0), ov + c0, kc, 0, m, n,
                           c1 - c0);
    });
  }
}

}  // namespace

Tensor Matmul(const Tensor& a, const Tensor& b) {
  HCHECK(a.shape().rank() == 2 && b.shape().rank() == 2);
  HCHECK_MSG(a.shape().cols() == b.shape().rows(), "matmul shape mismatch");
  Shape out_shape({a.shape().rows(), b.shape().cols()});
  if (!a.has_data() || !b.has_data()) {
    return Tensor::Deferred(std::move(out_shape), a.dtype());
  }
  Tensor out = Tensor::Zeros(std::move(out_shape), a.dtype());
  MatmulInto(a, b, 0, b.shape().cols(), out);
  return out;
}

Tensor MatmulCols(const Tensor& a, const Tensor& b, int64_t col_begin,
                  int64_t col_end) {
  HCHECK(a.shape().rank() == 2 && b.shape().rank() == 2);
  HCHECK_MSG(a.shape().cols() == b.shape().rows(),
             "matmul shape mismatch");
  HCHECK(col_begin >= 0 && col_begin <= col_end &&
         col_end <= b.shape().cols());
  Shape out_shape({a.shape().rows(), col_end - col_begin});
  if (!a.has_data() || !b.has_data()) {
    return Tensor::Deferred(std::move(out_shape), a.dtype());
  }
  Tensor out = Tensor::Zeros(std::move(out_shape), a.dtype());
  MatmulInto(a, b, col_begin, col_end, out);
  return out;
}

Tensor MatmulQuant(const Tensor& a, const QuantizedTensor& w) {
  HCHECK(a.shape().rank() == 2 && w.shape().rank() == 2);
  HCHECK_MSG(a.shape().cols() == w.shape().rows(),
             "quant matmul shape mismatch");
  Shape out_shape({a.shape().rows(), w.shape().cols()});
  if (!a.has_data() || !w.has_data()) {
    return Tensor::Deferred(std::move(out_shape), a.dtype());
  }
  Tensor out = Tensor::Zeros(std::move(out_shape), a.dtype());
  MatmulQuantInto(a, w, 0, w.shape().cols(), out);
  return out;
}

Tensor MatmulQuantCols(const Tensor& a, const QuantizedTensor& w,
                       int64_t col_begin, int64_t col_end) {
  HCHECK(a.shape().rank() == 2 && w.shape().rank() == 2);
  HCHECK_MSG(a.shape().cols() == w.shape().rows(),
             "quant matmul shape mismatch");
  HCHECK(col_begin >= 0 && col_begin <= col_end &&
         col_end <= w.shape().cols());
  Shape out_shape({a.shape().rows(), col_end - col_begin});
  if (!a.has_data() || !w.has_data()) {
    return Tensor::Deferred(std::move(out_shape), a.dtype());
  }
  Tensor out = Tensor::Zeros(std::move(out_shape), a.dtype());
  MatmulQuantInto(a, w, col_begin, col_end, out);
  return out;
}

Tensor MatmulInt8(const Tensor& a, const QuantizedTensor& w) {
  HCHECK(a.shape().rank() == 2 && w.shape().rank() == 2);
  HCHECK_MSG(a.shape().cols() == w.shape().rows(),
             "int8 matmul shape mismatch");
  Shape out_shape({a.shape().rows(), w.shape().cols()});
  if (!a.has_data() || !w.has_data()) {
    return Tensor::Deferred(std::move(out_shape), a.dtype());
  }
  const QuantizedActivation qa = QuantizedActivation::Quantize(a);
  const int64_t m = a.shape().rows();
  const int64_t n = a.shape().cols();
  const int64_t k = w.shape().cols();
  const int64_t group = w.group_size();
  Tensor out = Tensor::Zeros(std::move(out_shape), a.dtype());
  const int8_t* acodes = qa.codes_data();
  const float* ascales = qa.scales_data();
  const int8_t* wcodes = w.codes_data();
  const float* wscales = w.scales_data();
  float* ov = out.mutable_data().data();

  // Integer accumulation within each weight group; FP rescale per group
  // (the group carries its own weight scale). Identical order on both
  // paths; only the (i, j) partition differs.
  auto cell = [&](int64_t i, int64_t j) {
    double acc = 0;
    const int8_t* arow = acodes + i * n;
    int64_t g = 0;
    for (int64_t g0 = 0; g0 < n; g0 += group, ++g) {
      const int64_t g1 = std::min(n, g0 + group);
      int64_t int_acc = 0;
      for (int64_t r = g0; r < g1; ++r) {
        int_acc += static_cast<int64_t>(arow[r]) * wcodes[r * k + j];
      }
      acc += static_cast<double>(int_acc) * ascales[i] * wscales[g * k + j];
    }
    ov[i * k + j] = static_cast<float>(acc);
  };

  // Unlike the FP kernels there is no separately-tiled fast path: the
  // integer dot product has no redundant loads to block away, so the
  // reference path IS the blocked body at threads == 1 (KernelParallelFor
  // inlines it) and both settings execute identical code per cell.
  const ResolvedKernelConfig cfg = ResolveKernelConfig();
  if (cfg.threads <= 1 || m >= 2 * cfg.threads) {
    KernelParallelFor(m, /*grain=*/1, [&](int64_t r0, int64_t r1) {
      for (int64_t i = r0; i < r1; ++i) {
        for (int64_t j = 0; j < k; ++j) {
          cell(i, j);
        }
      }
    });
  } else {
    // Too few rows to feed every thread: chunk output columns instead.
    KernelParallelFor(k, /*grain=*/16, [&](int64_t c0, int64_t c1) {
      for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = c0; j < c1; ++j) {
          cell(i, j);
        }
      }
    });
  }
  return out;
}

Tensor RmsNorm(const Tensor& x, const Tensor& gamma, float eps) {
  HCHECK(x.shape().rank() == 2);
  HCHECK(gamma.shape().numel() == x.shape().cols());
  if (!x.has_data() || !gamma.has_data()) {
    return Tensor::Deferred(x.shape(), x.dtype());
  }
  const int64_t m = x.shape().rows();
  const int64_t n = x.shape().cols();
  Tensor out = Tensor::Zeros(x.shape(), x.dtype());
  const float* xv = x.data().data();
  const float* gv = gamma.data().data();
  float* ov = out.mutable_data().data();
  KernelParallelFor(m, /*grain=*/1, [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      const float* row = xv + i * n;
      float* orow = ov + i * n;
      double sum_sq = 0;
      for (int64_t j = 0; j < n; ++j) {
        double v = row[j];
        sum_sq += v * v;
      }
      const float inv_rms =
          1.0f /
          std::sqrt(static_cast<float>(sum_sq / static_cast<double>(n)) + eps);
      for (int64_t j = 0; j < n; ++j) {
        orow[j] = row[j] * inv_rms * gv[j];
      }
    }
  });
  return out;
}

Tensor Silu(const Tensor& x) {
  if (!x.has_data()) {
    return Tensor::Deferred(x.shape(), x.dtype());
  }
  Tensor out = Tensor::Zeros(x.shape(), x.dtype());
  const float* xv = x.data().data();
  float* ov = out.mutable_data().data();
  KernelParallelFor(x.numel(), /*grain=*/1024, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      const float v = xv[i];
      ov[i] = v / (1.0f + std::exp(-v));
    }
  });
  return out;
}

Tensor SwiGlu(const Tensor& gate, const Tensor& up) {
  HCHECK(gate.shape() == up.shape());
  if (!gate.has_data() || !up.has_data()) {
    return Tensor::Deferred(gate.shape(), gate.dtype());
  }
  Tensor out = Tensor::Zeros(gate.shape(), gate.dtype());
  const float* gv = gate.data().data();
  const float* uv = up.data().data();
  float* ov = out.mutable_data().data();
  KernelParallelFor(gate.numel(), /*grain=*/1024, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      const float g = gv[i];
      ov[i] = g / (1.0f + std::exp(-g)) * uv[i];
    }
  });
  return out;
}

Tensor SoftmaxRows(const Tensor& x) {
  HCHECK(x.shape().rank() == 2);
  if (!x.has_data()) {
    return Tensor::Deferred(x.shape(), x.dtype());
  }
  const int64_t m = x.shape().rows();
  const int64_t n = x.shape().cols();
  Tensor out = Tensor::Zeros(x.shape(), x.dtype());
  const float* xv = x.data().data();
  float* ov = out.mutable_data().data();
  KernelParallelFor(m, /*grain=*/1, [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      const float* row = xv + i * n;
      float* orow = ov + i * n;
      float max_v = row[0];
      for (int64_t j = 1; j < n; ++j) {
        max_v = std::max(max_v, row[j]);
      }
      double sum = 0;
      for (int64_t j = 0; j < n; ++j) {
        sum += std::exp(static_cast<double>(row[j] - max_v));
      }
      for (int64_t j = 0; j < n; ++j) {
        orow[j] = static_cast<float>(
            std::exp(static_cast<double>(row[j] - max_v)) / sum);
      }
    }
  });
  return out;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  HCHECK(a.shape() == b.shape());
  if (!a.has_data() || !b.has_data()) {
    return Tensor::Deferred(a.shape(), a.dtype());
  }
  Tensor out = Tensor::Zeros(a.shape(), a.dtype());
  const float* av = a.data().data();
  const float* bv = b.data().data();
  float* ov = out.mutable_data().data();
  KernelParallelFor(a.numel(), /*grain=*/4096, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      ov[i] = av[i] + bv[i];
    }
  });
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  HCHECK(a.shape() == b.shape());
  if (!a.has_data() || !b.has_data()) {
    return Tensor::Deferred(a.shape(), a.dtype());
  }
  Tensor out = Tensor::Zeros(a.shape(), a.dtype());
  const float* av = a.data().data();
  const float* bv = b.data().data();
  float* ov = out.mutable_data().data();
  KernelParallelFor(a.numel(), /*grain=*/4096, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      ov[i] = av[i] * bv[i];
    }
  });
  return out;
}

namespace {

// theta^(-2d/head_dim) for d in [0, head_dim/2), cached per (head_dim,
// theta). The seed recomputed std::pow for every (row, head, d) triple;
// std::pow is deterministic for identical arguments, so the hoisted table
// is bit-exact against it. The cache is tiny (head_dim/2 doubles per
// distinct RoPE configuration) and shared process-wide.
const std::vector<double>& RopeFreqTable(int head_dim, float theta) {
  static std::mutex mu;
  static std::map<std::pair<int, float>, std::vector<double>>* cache =
      new std::map<std::pair<int, float>, std::vector<double>>();
  std::lock_guard<std::mutex> lock(mu);
  auto [it, inserted] = cache->try_emplace({head_dim, theta});
  if (inserted) {
    it->second.resize(static_cast<size_t>(head_dim / 2));
    for (int d = 0; d < head_dim / 2; ++d) {
      it->second[static_cast<size_t>(d)] =
          std::pow(static_cast<double>(theta),
                   -2.0 * static_cast<double>(d) / head_dim);
    }
  }
  return it->second;
}

}  // namespace

void ApplyRope(Tensor& x, int64_t pos_offset, int head_dim, float theta) {
  HCHECK(x.shape().rank() == 2);
  HCHECK(head_dim > 0 && head_dim % 2 == 0);
  HCHECK(x.shape().cols() % head_dim == 0);
  if (!x.has_data()) {
    return;
  }
  const int64_t m = x.shape().rows();
  const int64_t cols = x.shape().cols();
  const int64_t heads = cols / head_dim;
  const int64_t half = head_dim / 2;
  const std::vector<double>& freqs = RopeFreqTable(head_dim, theta);
  float* xv = x.mutable_data().data();
  KernelParallelFor(m, /*grain=*/1, [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      const double pos = static_cast<double>(pos_offset + i);
      float* row = xv + i * cols;
      for (int64_t d = 0; d < half; ++d) {
        // cos/sin hoisted out of the head loop: every head rotates pair d
        // by the same angle, so this reorder is arithmetic-identical.
        const double angle = pos * freqs[static_cast<size_t>(d)];
        const float cos_a = static_cast<float>(std::cos(angle));
        const float sin_a = static_cast<float>(std::sin(angle));
        for (int64_t h = 0; h < heads; ++h) {
          float* pair = row + h * head_dim + 2 * d;
          const float x0 = pair[0];
          const float x1 = pair[1];
          pair[0] = x0 * cos_a - x1 * sin_a;
          pair[1] = x0 * sin_a + x1 * cos_a;
        }
      }
    }
  });
}

}  // namespace heterollm::tensor::ops
