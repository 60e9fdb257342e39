// Block pool + prefix cache: refcounts, copy-on-write, fragmentation
// accounting, LRU eviction, and compute-mode equivalence of the pooled
// KvCache view against the legacy contiguous cache.

#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/engine_registry.h"
#include "src/model/kv_cache.h"
#include "src/serve/kv_pool.h"
#include "src/serve/prefix_cache.h"

namespace heterollm::serve {
namespace {

using core::Batch;
using core::Phase;
using model::ExecutionMode;
using model::KvCache;
using model::ModelConfig;
using model::ModelWeights;
using tensor::Shape;
using tensor::Tensor;

std::vector<int32_t> Iota(int n, int32_t start) {
  std::vector<int32_t> v(static_cast<size_t>(n));
  std::iota(v.begin(), v.end(), start);
  return v;
}

// Appends `rows` shape-only positions to a simulate-mode cache.
void AppendRows(KvCache& cache, const ModelConfig& cfg, int64_t rows) {
  const Tensor t =
      Tensor::Deferred(Shape({rows, cfg.kv_dim()}), tensor::DType::kFp16);
  cache.AppendStep(
      std::vector<Tensor>(static_cast<size_t>(cfg.num_layers), t),
      std::vector<Tensor>(static_cast<size_t>(cfg.num_layers), t));
}

TEST(KvBlockPoolTest, AllocateReleaseAccountingIsExact) {
  const ModelConfig cfg = ModelConfig::Tiny();
  KvBlockPool pool(cfg, /*block_tokens=*/16, /*num_blocks=*/4,
                   ExecutionMode::kSimulate);
  EXPECT_EQ(pool.total_blocks(), 4);
  EXPECT_EQ(pool.used_blocks(), 0);
  EXPECT_EQ(pool.available_blocks(), 4);

  // Pops ascend from 0 — the free list is deterministic.
  EXPECT_EQ(pool.AllocateBlock(), 0);
  EXPECT_EQ(pool.AllocateBlock(), 1);
  EXPECT_EQ(pool.AllocateBlock(), 2);
  EXPECT_EQ(pool.used_blocks(), 3);
  EXPECT_EQ(pool.free_blocks(), 1);
  EXPECT_EQ(pool.peak_used_blocks(), 3);

  // Interleaved release/allocate: the freed block is reused (LIFO), and the
  // counters track every transition exactly — no drift, no leaks.
  pool.ReleaseBlock(1);
  EXPECT_EQ(pool.used_blocks(), 2);
  EXPECT_EQ(pool.available_blocks(), 2);
  EXPECT_EQ(pool.AllocateBlock(), 1);
  EXPECT_EQ(pool.AllocateBlock(), 3);
  EXPECT_EQ(pool.used_blocks(), 4);
  EXPECT_EQ(pool.AllocateBlock(), -1);  // exhausted
  EXPECT_EQ(pool.peak_used_blocks(), 4);

  pool.ReleaseBlock(0);
  pool.ReleaseBlock(2);
  EXPECT_EQ(pool.used_blocks(), 2);

  // The soft cap models a runtime KV squeeze: physically free blocks stop
  // being allocatable, but blocks in use are not reclaimed.
  pool.set_usable_blocks(2);
  EXPECT_EQ(pool.available_blocks(), 0);
  EXPECT_EQ(pool.AllocateBlock(), -1);
  pool.set_usable_blocks(4);
  EXPECT_EQ(pool.AllocateBlock(), 2);  // LIFO: 2 freed last
}

TEST(KvBlockPoolTest, BudgetToBlocksMatchesCacheFootprint) {
  const ModelConfig cfg = ModelConfig::Tiny();
  const Bytes five_blocks = KvCache::BytesForTokens(cfg, 80);
  EXPECT_EQ(KvBlockPool::BlocksForBudget(cfg, five_blocks, 16), 5);
  // A budget one byte short of a block boundary rounds down.
  EXPECT_EQ(KvBlockPool::BlocksForBudget(cfg, five_blocks - 1, 16), 4);
  KvBlockPool pool(cfg, 16, 5, ExecutionMode::kSimulate);
  EXPECT_DOUBLE_EQ(pool.bytes_per_block(), KvCache::BytesForTokens(cfg, 16));
}

// A session appending into a shared (prefix-pinned) partial tail block must
// copy-on-write fork it: the cached copy stays frozen, the session writes
// into its private fork.
TEST(KvBlockPoolTest, SharedTailBlockForksOnAppend) {
  const ModelConfig cfg = ModelConfig::Tiny();
  KvBlockPool pool(cfg, /*block_tokens=*/4, /*num_blocks=*/4,
                   ExecutionMode::kCompute);
  Rng rng(21);
  const Tensor k0 = Tensor::Random(Shape({2, cfg.kv_dim()}), rng);
  const Tensor v0 = Tensor::Random(Shape({2, cfg.kv_dim()}), rng);

  KvCache a = pool.MakeCache(/*max_tokens=*/8);
  a.AppendStep(std::vector<Tensor>(static_cast<size_t>(cfg.num_layers), k0),
               std::vector<Tensor>(static_cast<size_t>(cfg.num_layers), v0));
  ASSERT_EQ(a.held_blocks(), 1);
  const int32_t shared = a.blocks()[0];

  // Pin the block twice (as the prefix cache + an adopting session would),
  // then drop session A.
  pool.AddRef(shared);
  pool.AddRef(shared);
  a.Reset();
  EXPECT_EQ(pool.ref_count(shared), 2);

  KvCache b = pool.MakeCache(/*max_tokens=*/8);
  b.AdoptPrefix({shared}, /*tokens=*/2);  // partial tail, still shared
  EXPECT_EQ(b.BlocksNeededFor(1), 1);     // a CoW fork, not a fresh block

  const Tensor k1 = Tensor::Random(Shape({1, cfg.kv_dim()}), rng);
  b.AppendStep(std::vector<Tensor>(static_cast<size_t>(cfg.num_layers), k1),
               std::vector<Tensor>(static_cast<size_t>(cfg.num_layers), k1));
  EXPECT_EQ(pool.cow_forks(), 1);
  ASSERT_EQ(b.held_blocks(), 1);
  const int32_t fork = b.blocks()[0];
  EXPECT_NE(fork, shared);
  EXPECT_EQ(pool.ref_count(shared), 1);  // B released its ref on the source

  // B sees the copied prefix rows plus its append; the shared original is
  // untouched.
  EXPECT_EQ(Tensor::MaxAbsDiff(b.K(0).SliceRows(0, 2),
                               pool.ReadK(shared, 0, 2)),
            0.0f);
  EXPECT_EQ(b.K(0).shape().rows(), 3);
  EXPECT_EQ(b.length(), 3);
  pool.ReleaseBlock(shared);
}

TEST(PrefixCacheTest, AcquirePinsAndEvictionSkipsPinnedBlocks) {
  const ModelConfig cfg = ModelConfig::Tiny();
  KvBlockPool pool(cfg, /*block_tokens=*/16, /*num_blocks=*/8,
                   ExecutionMode::kSimulate);
  PrefixCache prefix(&pool);
  const std::vector<int32_t> prompt = Iota(48, 100);

  {
    KvCache cache = pool.MakeCache(64);
    AppendRows(cache, cfg, 48);
    prefix.Insert(prompt, cache.blocks(), cache.length());
    EXPECT_EQ(prefix.cached_blocks(), 3);
  }  // session gone; the cached blocks survive on the prefix pins
  EXPECT_EQ(pool.used_blocks(), 3);

  // Full-prompt matches are capped one block short: 48 tokens hit
  // floor(47 / 16) = 2 blocks.
  PrefixCache::Match hit = prefix.Acquire(prompt);
  EXPECT_EQ(hit.tokens, 32);
  ASSERT_EQ(hit.blocks.size(), 2u);
  EXPECT_EQ(pool.ref_count(hit.blocks[0]), 2);

  // Under pressure only the unpinned third block can go.
  EXPECT_EQ(prefix.EvictUntilFree(8), 1);
  EXPECT_EQ(prefix.evicted_blocks(), 1);
  EXPECT_EQ(prefix.cached_blocks(), 2);
  EXPECT_EQ(pool.used_blocks(), 2);

  // A different prompt shares nothing.
  EXPECT_EQ(prefix.Acquire(Iota(48, 9000)).tokens, 0);

  for (int32_t b : hit.blocks) {
    pool.ReleaseBlock(b);
  }
  EXPECT_EQ(prefix.EvictAll(), 2);
  EXPECT_EQ(pool.used_blocks(), 0);
}

// LRU ordering: a re-acquired (touched) prefix outlives an older one under
// eviction pressure; the untouchable full-prompt tail goes first.
TEST(PrefixCacheTest, EvictionIsLruWithTouchRefresh) {
  const ModelConfig cfg = ModelConfig::Tiny();
  KvBlockPool pool(cfg, /*block_tokens=*/16, /*num_blocks=*/8,
                   ExecutionMode::kSimulate);
  PrefixCache prefix(&pool);
  const std::vector<int32_t> prompt_a = Iota(64, 0);
  const std::vector<int32_t> prompt_b = Iota(64, 1000);

  for (const auto* p : {&prompt_a, &prompt_b}) {
    KvCache cache = pool.MakeCache(64);
    AppendRows(cache, cfg, 64);
    prefix.Insert(*p, cache.blocks(), cache.length());
  }
  EXPECT_EQ(pool.used_blocks(), 8);

  // Touch A: its matched chunks become the most recently used.
  PrefixCache::Match touch = prefix.Acquire(prompt_a);
  EXPECT_EQ(touch.tokens, 48);
  for (int32_t b : touch.blocks) {
    pool.ReleaseBlock(b);
  }

  // Three evictions: A's untouched tail block (oldest), then B's tail and
  // deepest touched chunk — never A's refreshed path.
  EXPECT_EQ(prefix.EvictUntilFree(3), 3);
  EXPECT_EQ(prefix.Acquire(prompt_a).tokens, 48);
  EXPECT_EQ(prefix.Acquire(prompt_b).tokens, 32);
}

// The acceptance bar for the cache redesign: a pooled KvCache view and the
// legacy contiguous cache produce bit-identical logits on a full
// compute-mode generate (prefill + decode steps).
TEST(PooledComputeTest, PooledCacheMatchesContiguousBitExact) {
  const ModelConfig cfg = ModelConfig::Tiny();
  const ModelWeights weights =
      ModelWeights::Create(cfg, ExecutionMode::kCompute, 31);
  Rng rng(77);
  const Tensor prompt = Tensor::Random(Shape({24, cfg.hidden}), rng, 0.1f);
  const Tensor tok1 = Tensor::Random(Shape({1, cfg.hidden}), rng, 0.1f);
  const Tensor tok2 = Tensor::Random(Shape({1, cfg.hidden}), rng, 0.1f);

  core::Platform platform(core::PlatformOptionsFor("Hetero-tensor"));
  auto engine = core::CreateEngine("Hetero-tensor", &platform, &weights);

  auto run = [&](Phase phase, KvCache* cache, const Tensor& rows) {
    return engine->Execute(Batch::One(phase, cache, rows)).logits;
  };

  KvCache contiguous(cfg, 64, ExecutionMode::kCompute);
  const Tensor lp_c = run(Phase::kPrefill, &contiguous, prompt);
  const Tensor l1_c = run(Phase::kDecode, &contiguous, tok1);
  const Tensor l2_c = run(Phase::kDecode, &contiguous, tok2);

  KvBlockPool pool(cfg, /*block_tokens=*/16, /*num_blocks=*/8,
                   ExecutionMode::kCompute);
  KvCache pooled = pool.MakeCache(64);
  const Tensor lp_p = run(Phase::kPrefill, &pooled, prompt);
  const Tensor l1_p = run(Phase::kDecode, &pooled, tok1);
  const Tensor l2_p = run(Phase::kDecode, &pooled, tok2);

  EXPECT_EQ(Tensor::MaxAbsDiff(lp_c, lp_p), 0.0f);
  EXPECT_EQ(Tensor::MaxAbsDiff(l1_c, l1_p), 0.0f);
  EXPECT_EQ(Tensor::MaxAbsDiff(l2_c, l2_p), 0.0f);
  EXPECT_EQ(pooled.held_blocks(), 2);  // 24 + 2 tokens in 16-token blocks
}

// Prefix reuse is numerically faithful: prefilling from a cached-prefix
// offset reproduces the full prefill's logits (the adopted K/V rows stand in
// exactly for the skipped computation).
TEST(PooledComputeTest, PrefillAfterCachedPrefixMatchesFullPrefill) {
  const ModelConfig cfg = ModelConfig::Tiny();
  const ModelWeights weights =
      ModelWeights::Create(cfg, ExecutionMode::kCompute, 31);
  Rng rng(78);
  const Tensor prompt = Tensor::Random(Shape({32, cfg.hidden}), rng, 0.1f);

  core::Platform platform(core::PlatformOptionsFor("Hetero-tensor"));
  auto engine = core::CreateEngine("Hetero-tensor", &platform, &weights);

  KvBlockPool pool(cfg, /*block_tokens=*/16, /*num_blocks=*/8,
                   ExecutionMode::kCompute);
  PrefixCache prefix(&pool);
  const std::vector<int32_t> tokens = Iota(32, 0);

  KvCache first = pool.MakeCache(40);
  const Tensor full_logits =
      engine->Execute(Batch::One(Phase::kPrefill, &first, prompt)).logits;
  prefix.Insert(tokens, first.blocks(), first.length());

  PrefixCache::Match hit = prefix.Acquire(tokens);
  ASSERT_EQ(hit.tokens, 16);  // capped below the full prompt
  KvCache second = pool.MakeCache(40);
  second.AdoptPrefix(hit.blocks, hit.tokens);
  // Only the rows past the adopted prefix run through the stack.
  const Tensor reuse_logits =
      engine
          ->Execute(Batch::One(Phase::kPrefill, &second,
                               prompt.SliceRows(hit.tokens, 32)))
          .logits;

  // Row 16..31 hidden states depend on rows 0..15 only through the cached
  // K/V, which round-tripped the same fp16 storage — bit-exact.
  EXPECT_EQ(Tensor::MaxAbsDiff(full_logits, reuse_logits), 0.0f);
  EXPECT_EQ(second.length(), 32);
}

// Appends `rows` random rows to every layer in one committed step.
void AppendRows(KvCache* cache, const ModelConfig& cfg, int64_t rows,
                Rng& rng) {
  const Tensor k = Tensor::Random(Shape({rows, cfg.kv_dim()}), rng);
  const Tensor v = Tensor::Random(Shape({rows, cfg.kv_dim()}), rng);
  cache->AppendStep(
      std::vector<Tensor>(static_cast<size_t>(cfg.num_layers), k),
      std::vector<Tensor>(static_cast<size_t>(cfg.num_layers), v));
}

TEST(KvCacheRollbackTest, PooledRollbackReleasesWholeBlocks) {
  const ModelConfig cfg = ModelConfig::Tiny();
  KvBlockPool pool(cfg, /*block_tokens=*/4, /*num_blocks=*/8,
                   ExecutionMode::kCompute);
  Rng rng(31);
  KvCache cache = pool.MakeCache(/*max_tokens=*/32);
  AppendRows(&cache, cfg, 10, rng);  // 3 blocks: 4 + 4 + 2
  ASSERT_EQ(cache.held_blocks(), 3);
  ASSERT_EQ(pool.used_blocks(), 3);
  const Tensor kept = cache.K(0).SliceRows(0, 5);

  cache.RollbackTo(5);  // back into block 1: block 2 returns to the pool
  EXPECT_EQ(cache.length(), 5);
  EXPECT_EQ(cache.held_blocks(), 2);
  EXPECT_EQ(pool.used_blocks(), 2);
  EXPECT_EQ(Tensor::MaxAbsDiff(cache.K(0), kept), 0.0f);

  cache.RollbackTo(4);  // exact boundary: one block spans 4 tokens
  EXPECT_EQ(cache.held_blocks(), 1);

  // The freed span is writable again and the survivors are intact.
  AppendRows(&cache, cfg, 3, rng);
  EXPECT_EQ(cache.length(), 7);
  EXPECT_EQ(Tensor::MaxAbsDiff(cache.K(0).SliceRows(0, 4), kept.SliceRows(0, 4)),
            0.0f);

  cache.Reset();
  EXPECT_EQ(pool.used_blocks(), 0);
}

// Regression (the admission/fork accounting seam): with a shared partial
// tail and a single free block, the copy-on-write fork consumes the last
// block and the fresh allocation fails — the reservation must unwind to
// exactly the prior state instead of leaking the fork or aborting.
TEST(KvCacheRollbackTest, TryReserveStepFailureIsAtomic) {
  const ModelConfig cfg = ModelConfig::Tiny();
  KvBlockPool pool(cfg, /*block_tokens=*/4, /*num_blocks=*/2,
                   ExecutionMode::kCompute);
  Rng rng(32);

  KvCache a = pool.MakeCache(/*max_tokens=*/8);
  AppendRows(&a, cfg, 2, rng);  // partial tail block
  const int32_t shared = a.blocks()[0];
  pool.AddRef(shared);
  pool.AddRef(shared);
  a.Reset();
  ASSERT_EQ(pool.ref_count(shared), 2);  // prefix pin + adopter-to-be
  ASSERT_EQ(pool.free_blocks(), 1);

  KvCache b = pool.MakeCache(/*max_tokens=*/8);
  b.AdoptPrefix({shared}, /*tokens=*/2);
  // BlocksNeededFor prices the fork exactly as the reservation consumes it.
  EXPECT_EQ(b.BlocksNeededFor(3), 2);  // CoW fork + one spill block

  EXPECT_FALSE(b.TryReserveStep(3));
  // Unwound: the fork went back, the shared block kept both refs, and the
  // cache is byte-for-byte where it was.
  EXPECT_EQ(pool.free_blocks(), 1);
  EXPECT_EQ(pool.ref_count(shared), 2);
  EXPECT_EQ(b.length(), 2);
  EXPECT_EQ(b.blocks(), (std::vector<int32_t>{shared}));
  EXPECT_FALSE(b.step_open());

  // A smaller step that fits (fork only, rows stay in the tail block)
  // still succeeds afterwards.
  EXPECT_TRUE(b.TryReserveStep(2));
  AppendRows(&b, cfg, 2, rng);
  EXPECT_EQ(b.length(), 4);
  EXPECT_NE(b.blocks()[0], shared);  // writes went to the private fork
  // The fork released b's adoption ref; only the prefix pin remains.
  EXPECT_EQ(pool.ref_count(shared), 1);
  pool.ReleaseBlock(shared);
}

// BlocksNeededFor must agree with what appending actually takes from the
// pool — the scheduler's admission and iteration reservations are priced
// with it, so an off-by-one here livelocks or aborts serving.
TEST(KvCacheRollbackTest, BlocksNeededForMatchesActualConsumption) {
  const ModelConfig cfg = ModelConfig::Tiny();
  KvBlockPool pool(cfg, /*block_tokens=*/4, /*num_blocks=*/16,
                   ExecutionMode::kCompute);
  Rng rng(33);
  KvCache cache = pool.MakeCache(/*max_tokens=*/64);
  for (const int64_t rows : {3, 1, 2, 6, 4}) {
    const int64_t predicted = cache.BlocksNeededFor(rows);
    const int64_t before = pool.used_blocks();
    AppendRows(&cache, cfg, rows, rng);
    EXPECT_EQ(pool.used_blocks() - before, predicted) << "rows=" << rows;
  }
}

}  // namespace
}  // namespace heterollm::serve
