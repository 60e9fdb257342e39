// KV ledger: the pressure ladder's rung order, the resumed prompt's
// protection, admission's usable-cap gate, and failed admissions leaving
// the block accounting exactly as they found it.

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/model/kv_cache.h"
#include "src/serve/iteration_scheduler.h"
#include "src/serve/kv_ledger.h"
#include "src/serve/request_queue.h"

namespace heterollm::serve {
namespace {

using model::KvCache;
using model::ModelConfig;
using tensor::Shape;
using tensor::Tensor;

constexpr int64_t kBlock = 16;

std::vector<int32_t> Iota(int n, int32_t start) {
  std::vector<int32_t> v(static_cast<size_t>(n));
  std::iota(v.begin(), v.end(), start);
  return v;
}

// A ledger over `blocks` 16-token blocks of the Tiny model.
SchedulerOptions Options(int64_t blocks) {
  SchedulerOptions opts;
  opts.kv_block_tokens = kBlock;
  opts.kv_budget_bytes =
      KvCache::BytesForTokens(ModelConfig::Tiny(), blocks * kBlock);
  return opts;
}

// Appends `rows` shape-only positions (the ladder has made room).
void Append(KvLedger& kv, KvCache* cache, int64_t rows) {
  const ModelConfig cfg = ModelConfig::Tiny();
  kv.ReserveStep(cache, rows);
  const Tensor t =
      Tensor::Deferred(Shape({rows, cfg.kv_dim()}), tensor::DType::kFp16);
  cache->AppendStep(
      std::vector<Tensor>(static_cast<size_t>(cfg.num_layers), t),
      std::vector<Tensor>(static_cast<size_t>(cfg.num_layers), t));
}

// Admits request `idx` with nothing to preempt and appends `rows` of it.
KvCache* AdmitAndAppend(KvLedger& kv, size_t idx, const Request& r,
                        int64_t rows) {
  KvCache* cache = kv.Admit(idx, r, {}).cache;
  HCHECK(cache != nullptr);
  if (rows > 0) {
    Append(kv, cache, rows);
  }
  return cache;
}

// Caches a 2-block prompt prefix (request 0, then released): two
// unpinned, evictable prefix-cache entries.
void SeedPrefix(KvLedger& kv, const std::vector<int32_t>& tokens) {
  const Request seeder = Request::Chat(0, 0, 32, 0, tokens);
  AdmitAndAppend(kv, 0, seeder, 32);
  kv.CommitPrompt(0, seeder.prompt_tokens);
  kv.Release(0);
}

// Rungs fire cheapest first: cached prefixes, then the speculative shed,
// then parked prompts, then the caller's preemption.
TEST(KvLedgerTest, LadderEvictsPrefixesShedsDropsParkedThenPreempts) {
  KvLedger kv(ModelConfig::Tiny(), Options(16));
  SeedPrefix(kv, Iota(32, 100));
  // Request 1 parks 3 prompt blocks; request 2 stays active with 4 blocks.
  AdmitAndAppend(kv, 1, Request::Chat(1, 0, 48, 16), 48);
  kv.Release(1, /*park_tokens=*/48);
  AdmitAndAppend(kv, 2, Request::Chat(2, 0, 64, 16), 64);
  ASSERT_EQ(kv.pool().used_blocks(), 2 + 3 + 4);
  ASSERT_TRUE(kv.CheckInvariants().ok());

  std::vector<std::string> log;
  bool shed = false;
  bool preempted = false;
  KvLedger::Pressure p;
  p.want = [&] {
    log.push_back("e" + std::to_string(kv.evicted_blocks()) + " p" +
                  std::to_string(kv.parked_prompts()));
    return int64_t{16};  // the whole pool
  };
  p.shed = [&] {
    if (shed) {
      return false;
    }
    log.push_back("shed");
    return shed = true;
  };
  p.preempt = [&] {
    if (preempted) {
      return false;
    }
    log.push_back("preempt");
    kv.Release(2);
    return preempted = true;
  };
  ASSERT_TRUE(kv.Relieve(p));
  const std::vector<std::string> want = {"e0 p1", "e2 p1",   "shed", "e2 p1",
                                         "e2 p0", "preempt", "e2 p0"};
  EXPECT_EQ(log, want);
  EXPECT_EQ(kv.pool().used_blocks(), 0);
  EXPECT_TRUE(kv.CheckInvariants().ok());
}

// Admission may drop other parked prompts for room, but never the one it
// is about to resume — even when that one is the least recently parked.
TEST(KvLedgerTest, AdmissionNeverDropsThePromptItResumes) {
  KvLedger kv(ModelConfig::Tiny(), Options(16));
  const Request resumed = Request::Chat(1, 0, 48, 16);  // footprint 4
  AdmitAndAppend(kv, 1, resumed, 48);
  AdmitAndAppend(kv, 2, Request::Chat(2, 0, 32, 16), 32);
  // Request 3 holds 8 blocks with 1 more reserved.
  AdmitAndAppend(kv, 3, Request::Chat(3, 0, 128, 16), 128);
  kv.Release(1, 48);  // parked first: the oldest
  kv.Release(2, 32);
  kv.ApplyKvSqueeze(0.875);  // 14 usable, 13 used
  ASSERT_EQ(kv.pool().available_blocks(), 1);

  const KvLedger::Admission a = kv.Admit(1, resumed, {});
  ASSERT_NE(a.cache, nullptr);
  EXPECT_TRUE(a.resumed);
  EXPECT_EQ(a.cache->length(), 48);
  EXPECT_EQ(kv.parked_prompts(), 0u);  // request 2's prompt was dropped
  EXPECT_TRUE(kv.CheckInvariants().ok());
}

// Prefix eviction frees physical blocks but never raises the usable cap:
// admission evicts only while its want still fits under the cap.
TEST(KvLedgerTest, AdmissionEvictsPrefixesOnlyWhileTheCapFits) {
  const Request big = Request::Chat(1, 0, 112, 16);  // footprint 8
  {
    KvLedger kv(ModelConfig::Tiny(), Options(16));
    SeedPrefix(kv, Iota(32, 100));
    kv.ApplyKvSqueeze(0.25);  // usable 4 < 8: eviction cannot help
    EXPECT_EQ(kv.Admit(1, big, {}).cache, nullptr);
    EXPECT_EQ(kv.evicted_blocks(), 0);
    EXPECT_EQ(kv.pool().used_blocks(), 2);
  }
  {
    KvLedger kv(ModelConfig::Tiny(), Options(16));
    SeedPrefix(kv, Iota(32, 100));
    kv.ApplyKvSqueeze(0.5);  // usable 8: evicting both entries fits
    EXPECT_NE(kv.Admit(1, big, {}).cache, nullptr);
    EXPECT_EQ(kv.evicted_blocks(), 2);
  }
}

// A failed admission releases its prefix pins: every refcount, the used
// count and the cached entries are exactly as before.
TEST(KvLedgerTest, FailedAdmissionLeavesRefcountsAndPinsUnchanged) {
  KvLedger kv(ModelConfig::Tiny(), Options(16));
  const std::vector<int32_t> head = Iota(32, 100);
  SeedPrefix(kv, head);
  AdmitAndAppend(kv, 1, Request::Chat(1, 0, 96, 16), 96);  // 6 of 7 blocks
  const std::vector<int> refs = kv.pool().RefCounts();
  const int64_t used = kv.pool().used_blocks();

  // Same 2-block head, footprint 11: the head is pinned, so nothing is
  // evictable, and the caller's preemption declines.
  std::vector<int32_t> tokens = head;
  const std::vector<int32_t> tail = Iota(32, 500);
  tokens.insert(tokens.end(), tail.begin(), tail.end());
  int preempt_calls = 0;
  const KvLedger::Admission a =
      kv.Admit(2, Request::Chat(2, 0, 64, 100, tokens), [&] {
        ++preempt_calls;
        return false;
      });
  EXPECT_EQ(a.cache, nullptr);
  EXPECT_EQ(preempt_calls, 1);
  EXPECT_EQ(kv.pool().RefCounts(), refs);
  EXPECT_EQ(kv.pool().used_blocks(), used);
  EXPECT_EQ(kv.evicted_blocks(), 0);
  EXPECT_TRUE(kv.CheckInvariants().ok());
  // The head is still cached: the same admission hits it once room exists.
  kv.Release(1);
  const KvLedger::Admission b =
      kv.Admit(2, Request::Chat(2, 0, 64, 100, tokens), {});
  ASSERT_NE(b.cache, nullptr);
  EXPECT_EQ(b.cache->length(), 32);
}

}  // namespace
}  // namespace heterollm::serve
