#include "src/common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace heterollm {
namespace {

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool;
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, /*threads=*/8, /*grain=*/7,
                   [&](int64_t begin, int64_t end) {
                     for (int64_t i = begin; i < end; ++i) {
                       hits[static_cast<size_t>(i)].fetch_add(1);
                     }
                   });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool;
  const auto caller = std::this_thread::get_id();
  bool same_thread = true;
  pool.ParallelFor(100, /*threads=*/1, /*grain=*/1,
                   [&](int64_t, int64_t) {
                     same_thread =
                         same_thread && std::this_thread::get_id() == caller;
                   });
  EXPECT_TRUE(same_thread);
  EXPECT_EQ(pool.worker_count(), 0);  // no workers spawned for inline runs
}

TEST(ThreadPoolTest, ZeroCountIsNoop) {
  ThreadPool pool;
  int calls = 0;
  pool.ParallelFor(0, /*threads=*/4, /*grain=*/1,
                   [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, GrainBoundsChunkSize) {
  ThreadPool pool;
  std::atomic<bool> undersized{false};
  pool.ParallelFor(103, /*threads=*/8, /*grain=*/10,
                   [&](int64_t begin, int64_t end) {
                     // Only the final chunk may be shorter than the grain.
                     if (end - begin < 10 && end != 103) {
                       undersized = true;
                     }
                   });
  EXPECT_FALSE(undersized.load());
}

TEST(ThreadPoolTest, ChunksAreDeterministicRanges) {
  // The (begin, end) pairs must be identical across runs and thread counts;
  // only the executing thread varies. This is the property the kernels'
  // bit-exactness contract rests on.
  auto collect = [](int64_t threads) {
    ThreadPool pool;
    std::mutex mu;
    std::vector<std::pair<int64_t, int64_t>> chunks;
    pool.ParallelFor(777, threads, /*grain=*/5,
                     [&](int64_t begin, int64_t end) {
                       std::lock_guard<std::mutex> lock(mu);
                       chunks.emplace_back(begin, end);
                     });
    std::sort(chunks.begin(), chunks.end());
    return chunks;
  };
  const auto a = collect(3);
  const auto b = collect(3);
  EXPECT_EQ(a, b);
  // Contiguous, gap-free cover of [0, 777).
  int64_t expect_begin = 0;
  for (const auto& [begin, end] : a) {
    EXPECT_EQ(begin, expect_begin);
    EXPECT_LT(begin, end);
    expect_begin = end;
  }
  EXPECT_EQ(expect_begin, 777);
}

TEST(ThreadPoolTest, ReusableAcrossManyJobs) {
  ThreadPool pool;
  std::atomic<int64_t> total{0};
  for (int job = 0; job < 50; ++job) {
    pool.ParallelFor(64, /*threads=*/4, /*grain=*/1,
                     [&](int64_t begin, int64_t end) {
                       total.fetch_add(end - begin);
                     });
  }
  EXPECT_EQ(total.load(), 50 * 64);
}

TEST(ThreadPoolTest, WorkerCountGrowsLazilyAndIsCapped) {
  ThreadPool pool;
  EXPECT_EQ(pool.worker_count(), 0);
  pool.ParallelFor(1000, /*threads=*/4, /*grain=*/1, [](int64_t, int64_t) {});
  // Executors are clamped to the core count, and the caller participates:
  // at most min(threads, cores) - 1 workers are ever spawned.
  const int64_t cores = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_LE(pool.worker_count(),
            static_cast<int>(std::min<int64_t>(4, cores)) - 1);
  pool.ParallelFor(100000, /*threads=*/1 << 20, /*grain=*/1,
                   [](int64_t, int64_t) {});
  EXPECT_LE(pool.worker_count(), ThreadPool::kMaxWorkers);
}

TEST(ThreadPoolTest, JobNeverRunsOnMoreThreadsThanAsked) {
  // Workers spawned by a wide job stay parked through a narrower one: a
  // 2-thread job runs on the caller plus at most one worker.
  const int64_t cores = std::max(1u, std::thread::hardware_concurrency());
  ThreadPool pool;
  pool.ParallelFor(1000, cores, /*grain=*/1, [](int64_t, int64_t) {});
  EXPECT_EQ(pool.worker_count(),
            static_cast<int>(std::min<int64_t>(cores - 1,
                                               ThreadPool::kMaxWorkers)));
  for (int job = 0; job < 5; ++job) {
    std::mutex mu;
    std::vector<std::thread::id> ids;
    pool.ParallelFor(64, /*threads=*/2, /*grain=*/1,
                     [&](int64_t, int64_t) {
                       // Long enough chunks that every parked worker would
                       // wake in time to claim one.
                       std::this_thread::sleep_for(
                           std::chrono::milliseconds(2));
                       std::lock_guard<std::mutex> lock(mu);
                       ids.push_back(std::this_thread::get_id());
                     });
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    EXPECT_LE(ids.size(), 2u) << "job " << job;
  }
}

TEST(ThreadPoolTest, SharedSingletonIsStable) {
  EXPECT_EQ(&ThreadPool::Shared(), &ThreadPool::Shared());
}

}  // namespace
}  // namespace heterollm
