// Chunked prefill: compute-mode bit-exactness of chunk-by-chunk prefill
// against one-shot prefill (the emitted greedy stream is identical), and
// the kHybridChunked serving policy — one-pass hybrid rounds whose KV state
// matches a decode pass plus a chunk pass, preempt-mid-prompt resume
// without re-prefilling, prefix-cache hits skipping whole chunks,
// composition with speculative decoding, and every registry engine.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/engine_registry.h"
#include "src/model/kv_cache.h"
#include "src/serve/iteration_scheduler.h"
#include "src/serve/kv_pool.h"
#include "src/serve/replica.h"
#include "src/serve/request_queue.h"
#include "src/serve/serving_engine.h"
#include "src/serve/serving_metrics.h"
#include "src/serve/speculative.h"

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

constexpr const char* kEngine = "Hetero-tensor";
constexpr uint64_t kSeed = 23;

struct Harness {
  std::unique_ptr<core::Platform> platform;
  std::unique_ptr<core::EngineBase> engine;
};

Harness MakeServing(const ModelWeights& weights,
                    const SchedulerOptions& sopts) {
  Harness h;
  h.platform = std::make_unique<core::Platform>(
      core::PlatformOptionsFor(kEngine));
  StatusOr<std::unique_ptr<core::EngineBase>> engine =
      BuildServingEngine(h.platform.get(), &weights, sopts);
  HCHECK(engine.ok());
  h.engine = std::move(engine).value();
  return h;
}

Tensor PromptEmbeddings(const ModelConfig& cfg, int len) {
  std::vector<Tensor> rows;
  rows.reserve(static_cast<size_t>(len));
  for (int t = 0; t < len; ++t) {
    rows.push_back(
        TokenEmbedding(cfg, 100 + t, ExecutionMode::kCompute, kSeed));
  }
  return Tensor::ConcatRows(rows);
}

// Prefills `prompt` into a reference cache in one shot and into a pooled
// cache chunk-by-chunk, then checks the final logits AND an 8-token greedy
// continuation are bit-identical — chunking must be numerically invisible.
void CheckChunkedBitExact(int prompt_len, int64_t chunk_tokens) {
  const ModelConfig cfg = ModelConfig::Tiny();
  const ModelWeights weights =
      ModelWeights::Create(cfg, ExecutionMode::kCompute, 31);
  const Tensor prompt = PromptEmbeddings(cfg, prompt_len);

  core::EngineOptions eopts;
  eopts.kv_capacity = 256;

  core::Platform ref_platform(core::PlatformOptionsFor(kEngine));
  auto ref_engine =
      core::CreateEngine(kEngine, &ref_platform, &weights, eopts);
  KvCache ref_cache(cfg, 256, ExecutionMode::kCompute);
  core::PhaseStats ref =
      ref_engine->Execute(Batch::One(Phase::kPrefill, &ref_cache, prompt));

  core::Platform chunk_platform(core::PlatformOptionsFor(kEngine));
  auto chunk_engine =
      core::CreateEngine(kEngine, &chunk_platform, &weights, eopts);
  KvBlockPool pool(cfg, /*block_tokens=*/16, /*num_blocks=*/32,
                   ExecutionMode::kCompute);
  KvCache chunk_cache = pool.MakeCache(/*max_tokens=*/256);
  core::PhaseStats chunked;
  for (int64_t offset = 0; offset < prompt_len;) {
    const int64_t len =
        std::min<int64_t>(chunk_tokens, prompt_len - offset);
    chunked = chunk_engine->Execute(Batch::One(
        Phase::kPrefill, &chunk_cache, prompt.SliceRows(offset, offset + len)));
    offset += len;
  }

  ASSERT_EQ(chunk_cache.length(), ref_cache.length());
  EXPECT_EQ(Tensor::MaxAbsDiff(ref.logits.SliceRows(
                                   ref.logits.shape().rows() - 1,
                                   ref.logits.shape().rows()),
                               chunked.logits.SliceRows(
                                   chunked.logits.shape().rows() - 1,
                                   chunked.logits.shape().rows())),
            0.0f);

  // Greedy continuation: every decoded token (and its logits) must match.
  int32_t ref_tok = Argmax(ref.logits, ref.logits.shape().rows() - 1);
  int32_t chunk_tok =
      Argmax(chunked.logits, chunked.logits.shape().rows() - 1);
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(chunk_tok, ref_tok);
    const Tensor emb =
        TokenEmbedding(cfg, ref_tok, ExecutionMode::kCompute, kSeed);
    const core::PhaseStats r =
        ref_engine->Execute(Batch::One(Phase::kDecode, &ref_cache, emb));
    const core::PhaseStats c =
        chunk_engine->Execute(Batch::One(Phase::kDecode, &chunk_cache, emb));
    EXPECT_EQ(Tensor::MaxAbsDiff(r.logits, c.logits), 0.0f);
    ref_tok = Argmax(r.logits, 0);
    chunk_tok = Argmax(c.logits, 0);
  }
}

TEST(ChunkedPrefillTest, BitExactAtChunkSizeOne) {
  CheckChunkedBitExact(/*prompt_len=*/7, /*chunk_tokens=*/1);
}

TEST(ChunkedPrefillTest, BitExactAtChunkSizeSixtyFour) {
  CheckChunkedBitExact(/*prompt_len=*/128, /*chunk_tokens=*/64);
}

TEST(ChunkedPrefillTest, BitExactWithRaggedLastChunk) {
  CheckChunkedBitExact(/*prompt_len=*/130, /*chunk_tokens=*/64);
}

TEST(ChunkedPrefillTest, ChunksCommitSequentially) {
  const ModelConfig cfg = ModelConfig::Tiny();
  const ModelWeights weights =
      ModelWeights::Create(cfg, ExecutionMode::kCompute, 31);
  core::EngineOptions eopts;
  eopts.kv_capacity = 64;
  core::Platform platform(core::PlatformOptionsFor(kEngine));
  auto engine = core::CreateEngine(kEngine, &platform, &weights, eopts);
  KvCache cache(cfg, 64, ExecutionMode::kCompute);
  const Tensor prompt = PromptEmbeddings(cfg, 32);
  // Each chunk commits exactly [offset, offset + len) positions; the next
  // chunk starts at the new cache length.
  const core::PhaseStats a = engine->Execute(
      Batch::One(Phase::kPrefill, &cache, prompt.SliceRows(0, 20)));
  EXPECT_EQ(cache.length(), 20);
  EXPECT_EQ(a.tokens, 20);
  const core::PhaseStats b = engine->Execute(
      Batch::One(Phase::kPrefill, &cache, prompt.SliceRows(20, 32)));
  EXPECT_EQ(cache.length(), 32);
  EXPECT_EQ(b.tokens, 12);
}

// kHybridChunked serves a burst to completion, runs ceil(prompt/chunk)
// chunk passes per request, interleaves chunks with decode rounds, and is
// deterministic run-to-run.
TEST(HybridChunkedTest, ServesBurstWithBudgetedChunks) {
  const ModelConfig cfg = ModelConfig::InternLM1_8B();
  ModelWeights weights = ModelWeights::Create(cfg, ExecutionMode::kSimulate);

  auto run_once = [&]() {
    SchedulerOptions sopts;
    sopts.iteration = IterationPolicy::kHybridChunked;
    sopts.max_decode_batch = 4;
    sopts.prefill_chunk_tokens = 64;
    std::vector<Request> reqs;
    for (int i = 0; i < 6; ++i) {
      // prompt 200 = 3 chunks of 64 + a ragged 8-token chunk
      reqs.push_back(Request::Chat(i, i * 2e4, 200, 16));
    }
    Harness h = MakeServing(weights, sopts);
    return IterationScheduler(h.engine.get(), sopts).Run(RequestQueue(reqs));
  };

  const ServingMetrics m = run_once();
  ASSERT_EQ(m.requests.size(), 6u);
  for (const RequestMetrics& r : m.requests) {
    EXPECT_EQ(r.decoded_tokens, 16);
    EXPECT_GE(r.first_token, r.admitted);  // TTFT = last chunk's commit
    EXPECT_GT(r.completion, r.first_token);
  }
  EXPECT_EQ(m.prefill_chunks, 6 * 4);
  EXPECT_EQ(m.chunked_prefill_tokens, 6 * 200);
  EXPECT_EQ(m.chunk_resumed_tokens, 0);
  // Later arrivals prefill while earlier sessions decode.
  EXPECT_GT(m.hybrid_iterations, 0);
  EXPECT_EQ(run_once().ToJson(), m.ToJson());
}

// Preemption parks the committed prompt chunks; re-admission resumes at
// the next chunk, so no prompt token is ever chunk-prefilled twice.
TEST(HybridChunkedTest, PreemptMidPromptResumesWithoutReprefill) {
  const ModelConfig cfg = ModelConfig::InternLM1_8B();
  ModelWeights weights = ModelWeights::Create(cfg, ExecutionMode::kSimulate);

  SchedulerOptions sopts;
  sopts.iteration = IterationPolicy::kHybridChunked;
  sopts.max_decode_batch = 2;
  sopts.prefill_chunk_tokens = 64;
  // 24 blocks of 16 tokens: the long document (21-block footprint) and the
  // newcomer (9 blocks) cannot coexist, so the newcomer preempts it.
  sopts.kv_budget_bytes = KvCache::BytesForTokens(cfg, 24 * 16);

  std::vector<Request> reqs;
  // The document: a 320-token (5-chunk) prompt. The chat lands while it is
  // mid-prompt (its 5 chunks span roughly 300 ms of simulated time) —
  // after at least one chunk has committed.
  reqs.push_back(Request::Chat(0, /*arrival=*/0, 320, 4));
  reqs.push_back(Request::Chat(1, /*arrival=*/1e5, 128, 4));

  Harness h = MakeServing(weights, sopts);
  const ServingMetrics m =
      IterationScheduler(h.engine.get(), sopts).Run(RequestQueue(reqs));

  EXPECT_EQ(m.requests[0].evictions, 1);
  EXPECT_EQ(m.requests[0].decoded_tokens, 4);
  EXPECT_EQ(m.requests[1].decoded_tokens, 4);
  // The document's committed chunks survived the preemption parked, so
  // across both admissions every prompt token ran through exactly one
  // chunk: 320 + 128 total, with no re-prefilled chunk.
  EXPECT_GT(m.chunk_resumed_tokens, 0);
  EXPECT_EQ(m.chunk_resumed_tokens % 64, 0);
  EXPECT_EQ(m.chunked_prefill_tokens, 320 + 128);
  EXPECT_EQ(m.prefill_chunks, 5 + 2);
}

// A prefix-cache hit adopts whole cached blocks and the chunk loop starts
// past them — a hit skips whole chunks, not just tokens.
TEST(HybridChunkedTest, PrefixHitSkipsWholeChunks) {
  const ModelConfig cfg = ModelConfig::InternLM1_8B();
  ModelWeights weights = ModelWeights::Create(cfg, ExecutionMode::kSimulate);

  SchedulerOptions sopts;
  sopts.iteration = IterationPolicy::kHybridChunked;
  sopts.max_decode_batch = 2;
  sopts.prefill_chunk_tokens = 32;

  std::vector<int32_t> tokens;
  for (int t = 0; t < 96; ++t) {
    tokens.push_back(1000 + t);
  }
  std::vector<Request> reqs;
  for (int i = 0; i < 2; ++i) {
    // Arrivals far apart: the first completes before the second. Prompt 96
    // = 3 chunks of 32.
    reqs.push_back(Request::Chat(i, i * 1e6, 96, 4, tokens));
  }

  Harness h = MakeServing(weights, sopts);
  const ServingMetrics m =
      IterationScheduler(h.engine.get(), sopts).Run(RequestQueue(reqs));

  EXPECT_EQ(m.requests[0].decoded_tokens, 4);
  EXPECT_EQ(m.requests[1].decoded_tokens, 4);
  // The second request's hit covers every full cached block; only the
  // residual tail is chunk-prefilled, in a single ragged chunk.
  EXPECT_GT(m.prefix_hit_tokens, 0);
  EXPECT_EQ(m.chunked_prefill_tokens + m.prefix_hit_tokens, 2 * 96);
  EXPECT_EQ(m.prefill_chunks, 3 + 1);
}

// Speculative decoding rides inside the decode half of hybrid iterations
// unchanged: drafts verify, rejected rows roll back, chunks keep flowing.
TEST(HybridChunkedTest, ComposesWithSpeculativeDecoding) {
  const ModelConfig cfg = ModelConfig::InternLM1_8B();
  ModelWeights weights = ModelWeights::Create(cfg, ExecutionMode::kSimulate);

  auto run_once = [&]() {
    SchedulerOptions sopts;
    sopts.iteration = IterationPolicy::kHybridChunked;
    sopts.max_decode_batch = 4;
    sopts.prefill_chunk_tokens = 48;
    sopts.speculative_window = 3;
    sopts.speculative_acceptance = 0.75;
    std::vector<Request> reqs;
    for (int i = 0; i < 5; ++i) {
      reqs.push_back(Request::Chat(i, i * 1e4, 100, 24));
    }
    Harness h = MakeServing(weights, sopts);
    return IterationScheduler(h.engine.get(), sopts).Run(RequestQueue(reqs));
  };

  const ServingMetrics m = run_once();
  for (const RequestMetrics& r : m.requests) {
    EXPECT_EQ(r.decoded_tokens, 24);
  }
  EXPECT_GT(m.total_draft_tokens(), 0);
  EXPECT_EQ(m.chunked_prefill_tokens, 5 * 100);
  EXPECT_EQ(run_once().ToJson(), m.ToJson());
}

// A fused hybrid round (chunk slot first, decode/verify slots after it, one
// engine pass) appends exactly what the decode pass and the chunk pass of a
// two-pass round append: every slot's cache length, every cache's held
// blocks and the pool's used blocks match, also after the verify rows'
// rejected drafts roll back.
TEST(HybridChunkedTest, FusedRoundLeavesKvStateOfTwoPassRound) {
  const ModelConfig cfg = ModelConfig::Tiny();
  const ModelWeights weights =
      ModelWeights::Create(cfg, ExecutionMode::kSimulate);
  struct Side {
    std::unique_ptr<core::Platform> platform;
    std::unique_ptr<core::EngineBase> engine;
    std::unique_ptr<KvBlockPool> pool;
    std::vector<std::unique_ptr<KvCache>> caches;  // [chunk, decode...]
  };
  constexpr int64_t kVerifyRows = 3;
  auto make_side = [&] {
    Side side;
    side.platform = std::make_unique<core::Platform>(
        core::PlatformOptionsFor(kEngine));
    side.engine = core::CreateEngine(kEngine, side.platform.get(), &weights);
    side.pool = std::make_unique<KvBlockPool>(
        cfg, /*block_tokens=*/16, /*num_blocks=*/64, ExecutionMode::kSimulate);
    // A prompt mid-prefill (20 of its tokens committed) and three decoding
    // sessions at different lengths.
    for (const int64_t committed : {20, 33, 47, 64}) {
      side.caches.push_back(
          std::make_unique<KvCache>(side.pool->MakeCache(256)));
      side.engine->Execute(Batch::Deferred(
          Phase::kPrefill, {side.caches.back().get()}, committed, cfg.hidden));
    }
    return side;
  };
  auto decode_caches = [](const Side& side) {
    std::vector<KvCache*> out;
    for (size_t i = 1; i < side.caches.size(); ++i) {
      out.push_back(side.caches[i].get());
    }
    return out;
  };

  Side fused = make_side();
  Side two_pass = make_side();
  const int64_t chunk_rows = 32 - 3 * kVerifyRows;
  fused.engine->Execute(Batch::Hybrid(fused.caches[0].get(), chunk_rows,
                                      decode_caches(fused), kVerifyRows,
                                      cfg.hidden));
  two_pass.engine->Execute(Batch::Deferred(
      Phase::kDecode, decode_caches(two_pass), kVerifyRows, cfg.hidden));
  two_pass.engine->Execute(Batch::Deferred(
      Phase::kPrefill, {two_pass.caches[0].get()}, chunk_rows, cfg.hidden));

  auto expect_same = [&](const char* when) {
    for (size_t i = 0; i < fused.caches.size(); ++i) {
      EXPECT_EQ(fused.caches[i]->length(), two_pass.caches[i]->length())
          << when << " slot " << i;
      EXPECT_EQ(fused.caches[i]->held_blocks(),
                two_pass.caches[i]->held_blocks())
          << when << " slot " << i;
    }
    EXPECT_EQ(fused.pool->used_blocks(), two_pass.pool->used_blocks())
        << when;
  };
  EXPECT_EQ(fused.caches[0]->length(), 20 + chunk_rows);
  expect_same("after the round");
  // The verify epilogue: each session keeps a different accepted prefix.
  for (Side* side : {&fused, &two_pass}) {
    for (size_t i = 1; i < side->caches.size(); ++i) {
      KvCache& cache = *side->caches[i];
      cache.RollbackTo(cache.length() - static_cast<int64_t>(i) + 1);
    }
  }
  expect_same("after rollback");
}

// Every registry engine serves a mixed kHybridChunked trace — speculative
// verify rows riding fused prefill passes, and a decode-less prompt that
// completes at its last chunk — to completion. The Chunked and MLLM-NPU
// engines run a fused pass as is, since it fits one of their chunks.
TEST(HybridChunkedTest, ServesMixedTraceOnEveryEngine) {
  const ModelConfig cfg = ModelConfig::Tiny();
  const ModelWeights weights =
      ModelWeights::Create(cfg, ExecutionMode::kSimulate);
  std::vector<Request> reqs;
  for (int i = 0; i < 6; ++i) {
    const int prompt = i % 3 == 2 ? 150 : 24 + 8 * i;
    reqs.push_back(Request::Chat(i, i * 2e3, prompt, i == 5 ? 0 : 6 + i));
  }
  for (const std::string& name : core::RunnableEngineNames()) {
    ReplicaOptions ropts;
    ropts.platform = core::PlatformOptionsFor(name);
    ropts.engine = name;
    ropts.scheduler.iteration = IterationPolicy::kHybridChunked;
    ropts.scheduler.prefill_chunk_tokens = 64;
    ropts.scheduler.max_decode_batch = 4;
    ropts.scheduler.speculative_window = 2;
    auto replica = Replica::Create(ropts, &weights);
    ASSERT_TRUE(replica.ok()) << name;
    const ServingMetrics m = (*replica)->Serve(RequestQueue(reqs));
    ASSERT_EQ(m.requests.size(), reqs.size()) << name;
    for (size_t i = 0; i < reqs.size(); ++i) {
      EXPECT_EQ(m.requests[i].decoded_tokens, reqs[i].decode_len) << name;
      EXPECT_GT(m.requests[i].completion, 0) << name;
    }
    EXPECT_GT(m.hybrid_iterations, 0) << name;
  }
}

// A scripted KV squeeze in the middle of a kHybridChunked + speculative run
// drives each round's reservation fallbacks. A decoding chat (4-block
// footprint) shares a 32-block pool with a document still mid-prompt when
// the usable cap drops to 8 blocks:
//   * the decode rows first shed the verify window to one row per session;
//   * once even one row cannot get a block, the decode side preempts the
//     chat (the document has fewer decode tokens left); the document's next
//     chunk drops the chat's parked prompt and still cannot get its blocks,
//     so the round runs nothing and waits for the next condition event —
//     the lift — with a session still admitted.
// Every request still completes exactly once, with all its tokens.
TEST(HybridChunkedTest, KvSqueezeShedsWindowPreemptsAndWaitsForLift) {
  const ModelConfig cfg = ModelConfig::Tiny();
  const ModelWeights weights =
      ModelWeights::Create(cfg, ExecutionMode::kSimulate);
  constexpr int kWindow = 3;
  constexpr MicroSeconds kLift = 14e3;
  sim::ConditionEvent squeeze;
  squeeze.time = 6.8e3;
  squeeze.kv_budget_scale = 0.25;
  sim::ConditionEvent lift;
  lift.time = kLift;
  lift.kv_budget_scale = 1.0;

  ReplicaOptions ropts;
  ropts.platform = core::PlatformOptionsFor(kEngine);
  ropts.platform.conditions = {squeeze, lift};
  ropts.engine = kEngine;
  ropts.scheduler.iteration = IterationPolicy::kHybridChunked;
  ropts.scheduler.max_decode_batch = 2;
  ropts.scheduler.prefill_chunk_tokens = 64;
  ropts.scheduler.speculative_window = kWindow;
  ropts.scheduler.kv_budget_bytes = KvCache::BytesForTokens(cfg, 32 * 16);
  auto replica = Replica::Create(ropts, &weights);
  ASSERT_TRUE(replica.ok());
  Replica& r = **replica;

  const std::vector<Request> reqs = {Request::Chat(0, 0, 16, 40),
                                     Request::Chat(1, 6e3, 320, 4)};
  r.BeginWindow();
  for (const Request& req : reqs) {
    r.Submit(req);
  }
  std::vector<int> completions(reqs.size(), 0);
  int waits_with_sessions = 0;
  for (;;) {
    const bool had_sessions = r.active_sessions() > 0;
    if (!r.StepRound()) {
      break;
    }
    if (had_sessions && r.now() == kLift) {
      ++waits_with_sessions;
    }
    for (const CompletionEvent& done : r.DrainCompletions()) {
      ASSERT_GE(done.id, 0);
      ASSERT_LT(done.id, static_cast<int>(reqs.size()));
      ++completions[static_cast<size_t>(done.id)];
    }
  }
  const ServingMetrics m = r.EndWindow();

  for (size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(completions[i], 1) << "request " << i;
    EXPECT_EQ(m.requests[i].decoded_tokens, reqs[i].decode_len);
    EXPECT_GT(m.requests[i].completion, m.requests[i].first_token);
  }
  // Unshed, every session step verifies kWindow drafts.
  const int64_t session_steps =
      std::llround(m.avg_decode_batch * m.decode_iterations);
  EXPECT_LT(m.total_draft_tokens(), kWindow * session_steps);
  // The chat was preempted by the decode side, and the document's prompt
  // was still incomplete when the round waited for the lift.
  EXPECT_EQ(m.requests[0].evictions, 1);
  EXPECT_EQ(m.requests[1].evictions, 0);
  EXPECT_EQ(waits_with_sessions, 1);
  EXPECT_GT(m.requests[1].first_token, kLift);
  // The dropped parked prompt re-prefills once: nothing resumes.
  EXPECT_EQ(m.chunked_prefill_tokens, 16 + 16 + 320);
  EXPECT_EQ(m.chunk_resumed_tokens, 0);
}

// The headline scheduling property: under mixed long-prompt/short-decode
// traffic, hybrid chunking bounds the decode stall behind any prefill to
// one chunk, so the TPOT tail beats prefill-first on the same trace.
TEST(HybridChunkedTest, ImprovesTpotTailUnderMixedTraffic) {
  const ModelConfig cfg = ModelConfig::InternLM1_8B();
  ModelWeights weights = ModelWeights::Create(cfg, ExecutionMode::kSimulate);

  auto serve = [&](IterationPolicy policy) {
    Rng rng(77);
    RequestQueue queue = RequestQueue::SyntheticMixed(
        rng, /*count=*/16, /*mean_interarrival_us=*/3e4,
        /*long_fraction=*/0.25, /*min_long_prompt=*/768,
        /*max_long_prompt=*/1024, /*long_decode=*/8,
        /*min_prompt=*/32, /*max_prompt=*/96,
        /*min_decode=*/24, /*max_decode=*/48);
    SchedulerOptions sopts;
    sopts.iteration = policy;
    sopts.max_decode_batch = 8;
    sopts.prefill_chunk_tokens = 128;
    sopts.kv_budget_bytes = 512 * kMiB;
    Harness h = MakeServing(weights, sopts);
    return IterationScheduler(h.engine.get(), sopts).Run(queue);
  };

  const ServingMetrics pf = serve(IterationPolicy::kPrefillFirst);
  const ServingMetrics hybrid = serve(IterationPolicy::kHybridChunked);
  for (const RequestMetrics& r : hybrid.requests) {
    EXPECT_GT(r.completion, 0);
  }
  EXPECT_LT(hybrid.tpot_tail().p99, pf.tpot_tail().p99);
}

// With the timeline off, serving twice as many requests leaves what the
// simulator retains, and the engine's host-sync bookkeeping, where the
// shorter run left them: neither grows with run length.
TEST(HybridChunkedTest, RetainedMemoryDoesNotGrowWithRunLength) {
  const ModelConfig cfg = ModelConfig::Tiny();
  const ModelWeights weights =
      ModelWeights::Create(cfg, ExecutionMode::kSimulate);
  struct Retained {
    int64_t kernels = 0;
    size_t sim_bytes = 0;
    size_t synced_bytes = 0;
  };
  auto serve = [&](int count) {
    ReplicaOptions ropts;
    ropts.platform = core::PlatformOptionsFor(kEngine);
    ropts.engine = kEngine;
    ropts.scheduler.iteration = IterationPolicy::kHybridChunked;
    ropts.scheduler.prefill_chunk_tokens = 64;
    ropts.scheduler.max_decode_batch = 4;
    auto replica = Replica::Create(ropts, &weights);
    HCHECK(replica.ok());
    std::vector<Request> reqs;
    for (int i = 0; i < count; ++i) {
      reqs.push_back(Request::Chat(i, i * 1e4, 96, 24));
    }
    const ServingMetrics m = (*replica)->Serve(RequestQueue(reqs));
    HCHECK(m.requests.size() == reqs.size());
    const sim::SocSimulator& soc = (*replica)->platform().soc();
    HCHECK(!soc.records_timeline());
    return Retained{soc.kernel_count(), soc.history_bytes(),
                    (*replica)->engine().synced_kernel_bytes()};
  };
  const Retained shorter = serve(24);
  const Retained longer = serve(48);
  ASSERT_GT(shorter.kernels, 2 * sim::SocSimulator::kRecentRetirements);
  ASSERT_GT(longer.kernels, shorter.kernels * 19 / 10);
  EXPECT_EQ(longer.sim_bytes, shorter.sim_bytes);
  EXPECT_EQ(longer.synced_bytes, shorter.synced_bytes);
}

TEST(HybridChunkedTest, ValidatedRejectsBadChunkOptions) {
  SchedulerOptions bad_chunk;
  bad_chunk.iteration = IterationPolicy::kHybridChunked;
  bad_chunk.prefill_chunk_tokens = 0;
  EXPECT_FALSE(SchedulerOptions::Validated(bad_chunk).ok());

  SchedulerOptions ok;
  ok.iteration = IterationPolicy::kHybridChunked;
  ok.prefill_chunk_tokens = 64;
  EXPECT_TRUE(SchedulerOptions::Validated(ok).ok());
}

}  // namespace
}  // namespace heterollm::serve
