// Persistent worker pool for data-parallel kernel loops.
//
// One process-wide pool (ThreadPool::Shared()) backs every compute kernel;
// workers are spawned lazily up to the largest parallelism ever requested
// and park on a condition variable between jobs, so an idle pool costs
// nothing and a 1-thread ParallelFor never leaves the calling thread.
//
// ParallelFor partitions [0, count) into contiguous chunks that workers
// claim with an atomic cursor. The caller participates, so `threads` == 1
// runs entirely inline (no cross-thread handoff, byte-for-byte the serial
// loop). Chunk claiming is dynamic but chunk *contents* are deterministic:
// a work item is always the same contiguous index range regardless of which
// thread executes it, which is what the kernels rely on for bit-exact
// threaded-vs-scalar results (each output row is produced by exactly one
// thread with an unchanged per-row accumulation order).

#ifndef SRC_COMMON_THREAD_POOL_H_
#define SRC_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace heterollm {

class ThreadPool {
 public:
  ThreadPool() = default;
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Runs `body(begin, end)` over a partition of [0, count) using up to
  // `threads` concurrent executors (the caller plus at most `threads` - 1
  // pooled workers, even when more are parked), clamped to the hardware
  // core count — oversubscribing CPU-bound kernels only adds context
  // switches. Blocks until every chunk has completed. `grain` is the
  // minimum chunk length; chunks are sized so roughly 4 land on each
  // executor (cheap dynamic load balancing without shrinking chunks into
  // scheduling noise).
  //
  // Not re-entrant: bodies must not call ParallelFor on the same pool.
  void ParallelFor(int64_t count, int64_t threads, int64_t grain,
                   const std::function<void(int64_t, int64_t)>& body);

  // Workers currently spawned (grows on demand, for tests/introspection).
  int worker_count() const;

  // The process-wide pool used by the tensor kernels.
  static ThreadPool& Shared();

  // Hard cap on pooled workers (beyond this, extra requested parallelism is
  // served by larger chunks instead of more threads).
  static constexpr int kMaxWorkers = 63;

 private:
  void WorkerLoop();
  void EnsureWorkers(int wanted);
  // Claims and runs chunks of the current job until the cursor runs out;
  // returns the number of chunks this thread completed.
  int RunChunks();

  mutable std::mutex mu_;
  std::condition_variable job_cv_;   // workers wait for a new job epoch
  std::condition_variable done_cv_;  // caller waits for chunk completion
  std::vector<std::thread> workers_;
  bool stop_ = false;

  // Current job, valid while busy_ is true. Guarded by mu_ for publication;
  // workers read it only after observing the epoch bump under mu_.
  const std::function<void(int64_t, int64_t)>* body_ = nullptr;
  int64_t count_ = 0;
  int64_t chunk_ = 1;
  int64_t num_chunks_ = 0;
  int64_t chunks_done_ = 0;  // guarded by mu_
  int active_ = 0;           // workers inside RunChunks, guarded by mu_
  int helpers_ = 0;          // workers the current job admits, guarded by mu_
  int joined_ = 0;           // workers that joined it so far, guarded by mu_
  uint64_t epoch_ = 0;
  bool busy_ = false;
  std::atomic<int64_t> cursor_{0};  // next chunk index to claim
};

}  // namespace heterollm

#endif  // SRC_COMMON_THREAD_POOL_H_
