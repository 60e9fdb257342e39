// Process-wide knob selecting how the compute kernels in src/tensor/ run.
//
// Threading/bit-exactness contract. Every kernel has two implementations:
//
//   * the *reference scalar* path — the seed repo's simple loops, kept as
//     the equivalence oracle (`num_threads == 1` reproduces it byte-for-byte);
//   * the *blocked* path — register-tiled, cache-friendly rewrites that
//     fan contiguous output-row (or flat-range) chunks out over the shared
//     ThreadPool.
//
// The blocked path partitions work so each thread owns disjoint output rows
// and every output element keeps the reference path's per-element FP
// accumulation order, so the two paths agree bit-for-bit (MaxAbsDiff == 0)
// at any thread count — tests/tensor/kernel_parity_test.cc pins this down.
//
// Quantization (QuantizedTensor::Quantize and the weight synthesis in
// QuantizedTensor::Random) has a single (group x column-tile) kernel and no
// separate scalar oracle: at 1 thread it runs inline. Its oracle is the
// tiling itself (every code and scale is computed from its own group only)
// and the pinned weight digests in tests/model/weights_test.cc.
//
// `num_threads` semantics:
//   0  -> auto: blocked kernels on std::thread::hardware_concurrency()
//         threads (the default — engines, serving and benches ride this);
//   1  -> reference scalar kernels (the oracle);
//   N  -> blocked kernels on at most N threads (N > 1): a job never runs on
//         more pool threads than this, however many earlier, wider jobs
//         spawned.
//
// The process-wide default is set with SetKernelOptions; KernelThreadScope
// overrides it for the current thread (RAII), which is how EngineBase and
// ModelWeights wire their per-instance `kernel_threads` option down to the
// kernels without racing other engines.

#ifndef SRC_TENSOR_KERNEL_CONFIG_H_
#define SRC_TENSOR_KERNEL_CONFIG_H_

#include <cstdint>
#include <functional>

namespace heterollm::tensor {

struct KernelOptions {
  // 0 = auto (hardware concurrency), 1 = reference scalar path, N = blocked
  // kernels on N threads. See the contract above.
  int num_threads = 0;
};

// Process-wide default (atomic; safe to call from any thread).
void SetKernelOptions(const KernelOptions& options);
KernelOptions GetKernelOptions();

// Per-thread RAII override. `num_threads == 0` adopts the process default
// (i.e. the scope is a no-op), matching EngineOptions::kernel_threads = 0.
class KernelThreadScope {
 public:
  explicit KernelThreadScope(int num_threads);
  ~KernelThreadScope();

  KernelThreadScope(const KernelThreadScope&) = delete;
  KernelThreadScope& operator=(const KernelThreadScope&) = delete;

 private:
  int saved_;
  bool engaged_;
};

// The knob resolved for the calling thread.
struct ResolvedKernelConfig {
  bool reference = false;  // run the scalar oracle path
  int threads = 1;         // pool parallelism for the blocked path
};
ResolvedKernelConfig ResolveKernelConfig();

// Runs `body(begin, end)` over [0, count) on the shared kernel pool with
// the resolved thread count (inline when that is 1). `grain` is the
// minimum chunk length. Kernels use this for their blocked paths; the
// partition never changes numerics (chunks are contiguous index ranges).
void KernelParallelFor(int64_t count, int64_t grain,
                       const std::function<void(int64_t, int64_t)>& body);

}  // namespace heterollm::tensor

#endif  // SRC_TENSOR_KERNEL_CONFIG_H_
