#include "src/common/thread_pool.h"

#include <algorithm>

#include "src/common/status.h"

namespace heterollm {

namespace {

int64_t HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int64_t>(hw);
}

}  // namespace

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  job_cv_.notify_all();
  for (std::thread& t : workers_) {
    t.join();
  }
}

int ThreadPool::worker_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(workers_.size());
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool* pool = new ThreadPool();  // leaked: outlives all users
  return *pool;
}

void ThreadPool::EnsureWorkers(int wanted) {
  wanted = std::min(wanted, kMaxWorkers);
  std::lock_guard<std::mutex> lock(mu_);
  while (static_cast<int>(workers_.size()) < wanted) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

int ThreadPool::RunChunks() {
  int ran = 0;
  for (;;) {
    const int64_t c = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (c >= num_chunks_) {
      return ran;
    }
    const int64_t begin = c * chunk_;
    const int64_t end = std::min(count_, begin + chunk_);
    (*body_)(begin, end);
    ++ran;
  }
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_epoch = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      job_cv_.wait(lock,
                   [&] { return stop_ || (busy_ && epoch_ != seen_epoch); });
      if (stop_) {
        return;
      }
      seen_epoch = epoch_;
      if (joined_ == helpers_) {
        continue;  // the job already has every executor it asked for
      }
      ++joined_;
      // Counted as a participant from here until the second locked section;
      // the job owner cannot tear the job state down while active_ > 0, so
      // the unlocked reads inside RunChunks stay on this job's fields.
      ++active_;
    }
    const int ran = RunChunks();
    {
      std::lock_guard<std::mutex> lock(mu_);
      chunks_done_ += ran;
      --active_;
      if (chunks_done_ == num_chunks_ && active_ == 0) {
        done_cv_.notify_all();
      }
    }
  }
}

void ThreadPool::ParallelFor(int64_t count, int64_t threads, int64_t grain,
                             const std::function<void(int64_t, int64_t)>& body) {
  if (count <= 0) {
    return;
  }
  grain = std::max<int64_t>(1, grain);
  // The kernels are CPU-bound: executors beyond the core count only add
  // context-switch overhead, so extra requested parallelism is served by
  // larger chunks instead of more threads (results are unchanged — chunk
  // contents stay deterministic either way).
  threads = std::min<int64_t>(threads, HardwareThreads());
  threads = std::max<int64_t>(1, std::min<int64_t>(threads, kMaxWorkers + 1));
  // Size chunks for ~4 per executor, but never below the grain (cheap
  // dynamic load balancing without shrinking chunks into scheduling noise).
  const int64_t chunk =
      std::max(grain, (count + threads * 4 - 1) / (threads * 4));
  const int64_t num_chunks = (count + chunk - 1) / chunk;
  if (num_chunks == 1 || threads == 1) {
    body(0, count);
    return;
  }
  // The caller is one executor; at most this many pooled workers join, so
  // a job never runs on more threads than it asked for, however many
  // workers earlier, wider jobs spawned.
  const int helpers =
      static_cast<int>(std::min<int64_t>(threads, num_chunks) - 1);
  EnsureWorkers(helpers);

  {
    std::lock_guard<std::mutex> lock(mu_);
    HCHECK_MSG(!busy_, "nested ThreadPool::ParallelFor on the same pool");
    helpers_ = helpers;
    joined_ = 0;
    body_ = &body;
    count_ = count;
    chunk_ = chunk;
    num_chunks_ = num_chunks;
    chunks_done_ = 0;
    cursor_.store(0, std::memory_order_relaxed);
    ++epoch_;
    busy_ = true;
  }
  job_cv_.notify_all();

  const int ran = RunChunks();
  {
    std::unique_lock<std::mutex> lock(mu_);
    chunks_done_ += ran;
    done_cv_.wait(lock, [&] { return chunks_done_ == num_chunks_ && active_ == 0; });
    busy_ = false;
    body_ = nullptr;
  }
}

}  // namespace heterollm
