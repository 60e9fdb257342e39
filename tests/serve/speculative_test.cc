// Speculative decoding: n-gram drafter behavior, compute-mode equivalence
// with plain greedy decoding (the accept-by-argmax rule makes the emitted
// stream bit-identical), rollback-then-redecode numerics, and the serving
// scheduler's batched-verify path (counts, determinism, pressure).

#include "src/serve/speculative.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/engine_registry.h"
#include "src/model/kv_cache.h"
#include "src/serve/iteration_scheduler.h"
#include "src/serve/kv_pool.h"
#include "src/serve/request_queue.h"
#include "src/serve/serving_engine.h"
#include "src/serve/serving_metrics.h"

namespace heterollm::serve {
namespace {

using model::ExecutionMode;
using model::KvCache;
using model::ModelConfig;
using model::ModelWeights;
using tensor::Shape;
using tensor::Tensor;

constexpr const char* kEngine = "Hetero-tensor";
constexpr uint64_t kSeed = 17;

TEST(NgramDrafterTest, ProposesObservedContinuations) {
  NgramDrafter drafter(/*order=*/2);
  drafter.ObserveAll({1, 2, 3, 1, 2});
  // The history ends ... 1, 2 and the pending token is 3: the bigram table
  // has seen [2,3] -> 1 and [3,1] -> 2, so the draft continues the cycle.
  EXPECT_EQ(drafter.Draft(/*next=*/3, /*k=*/2),
            (std::vector<int32_t>{1, 2}));
  // Draft is a pure lookup: asking twice yields the same proposal.
  EXPECT_EQ(drafter.Draft(3, 2), drafter.Draft(3, 2));
}

TEST(NgramDrafterTest, BacksOffToRepeatingTheLastToken) {
  NgramDrafter drafter(/*order=*/2);
  EXPECT_EQ(drafter.Draft(/*next=*/7, /*k=*/3),
            (std::vector<int32_t>{7, 7, 7}));
}

TEST(NgramDrafterTest, NewerObservationWinsTheContext) {
  NgramDrafter drafter(/*order=*/1);
  drafter.ObserveAll({5, 6, 5, 9});
  // [5] -> 6 was overwritten by [5] -> 9.
  EXPECT_EQ(drafter.Draft(/*next=*/5, /*k=*/1),
            (std::vector<int32_t>{9}));
}

// Engine with every verify width 1..window+1 pre-compiled.
core::EngineOptions SpecEngineOptions(int window) {
  core::EngineOptions opts;
  opts.kv_capacity = 128;
  opts.decode_widths.clear();
  for (int w = 1; w <= window + 1; ++w) {
    opts.decode_widths.push_back(w);
  }
  return opts;
}

// A repetitive prompt so the n-gram drafter has contexts to match.
std::vector<int32_t> RepetitivePrompt() {
  return {5, 9, 5, 9, 5, 9, 2, 5, 9};
}

// Speculative decoding must emit the exact token stream greedy decoding
// produces (a draft is accepted only when it equals the target's argmax),
// and after rolling back rejected rows the cache must be bit-identical to
// the never-speculated one — checked by decoding one more token on both
// caches and comparing logits exactly.
TEST(SpeculativeDecoderTest, ComputeModeMatchesPlainGreedyBitExactly) {
  const ModelConfig cfg = ModelConfig::Tiny();
  const ModelWeights weights =
      ModelWeights::Create(cfg, ExecutionMode::kCompute, 31);
  const int kWindow = 3;
  const int kCount = 12;
  const std::vector<int32_t> prompt = RepetitivePrompt();

  // Reference: plain greedy, contiguous cache, its own engine instance.
  core::Platform ref_platform(core::PlatformOptionsFor(kEngine));
  auto ref_engine = core::CreateEngine(kEngine, &ref_platform, &weights,
                                       SpecEngineOptions(kWindow));
  KvCache ref_cache(cfg, 128, ExecutionMode::kCompute);
  std::vector<Tensor> rows;
  for (int32_t t : prompt) {
    rows.push_back(TokenEmbedding(cfg, t, ExecutionMode::kCompute, kSeed));
  }
  core::PhaseStats ps = ref_engine->Execute(core::Batch::One(
      core::Phase::kPrefill, &ref_cache, Tensor::ConcatRows(rows)));
  int32_t pending = Argmax(ps.logits, ps.logits.shape().rows() - 1);
  std::vector<int32_t> greedy;
  for (int i = 0; i < kCount; ++i) {
    greedy.push_back(pending);
    ps = ref_engine->Execute(core::Batch::One(
        core::Phase::kDecode, &ref_cache,
        TokenEmbedding(cfg, pending, ExecutionMode::kCompute, kSeed)));
    pending = Argmax(ps.logits, 0);
  }

  // Speculative: pooled cache (block-granular CoW rollback), n-gram drafts.
  core::Platform spec_platform(core::PlatformOptionsFor(kEngine));
  auto spec_engine = core::CreateEngine(kEngine, &spec_platform, &weights,
                                        SpecEngineOptions(kWindow));
  KvBlockPool pool(cfg, /*block_tokens=*/4, /*num_blocks=*/64,
                   ExecutionMode::kCompute);
  KvCache spec_cache = pool.MakeCache(/*max_tokens=*/128);
  SpeculativeOptions sopts;
  sopts.window = kWindow;
  sopts.seed = kSeed;
  SpeculativeDecoder decoder(spec_engine.get(), &spec_cache, sopts);
  decoder.Prefill(prompt);
  const std::vector<int32_t> spec = decoder.Generate(kCount);

  EXPECT_EQ(spec, greedy);
  EXPECT_EQ(decoder.stats().emitted_tokens, kCount);
  EXPECT_EQ(decoder.stats().accepted_tokens +
                decoder.stats().rollback_tokens,
            decoder.stats().draft_tokens);

  // Rollback-then-redecode: both caches hold prompt + kCount committed
  // tokens; scoring the same next token must agree bit-for-bit.
  EXPECT_EQ(spec_cache.length(), ref_cache.length());
  const Tensor next =
      TokenEmbedding(cfg, pending, ExecutionMode::kCompute, kSeed);
  const core::PhaseStats ref_next = ref_engine->Execute(
      core::Batch::One(core::Phase::kDecode, &ref_cache, next));
  const core::PhaseStats spec_next = spec_engine->Execute(
      core::Batch::One(core::Phase::kDecode, &spec_cache, next));
  EXPECT_EQ(Tensor::MaxAbsDiff(ref_next.logits, spec_next.logits), 0.0f);
}

TEST(SpeculativeDecoderTest, SimulateModeCountsAndWindowCap) {
  const ModelConfig cfg = ModelConfig::Tiny();
  const ModelWeights weights =
      ModelWeights::Create(cfg, ExecutionMode::kSimulate);
  core::Platform platform(core::PlatformOptionsFor(kEngine));
  auto engine = core::CreateEngine(kEngine, &platform, &weights,
                                   SpecEngineOptions(/*window=*/3));

  KvCache cache(cfg, 128, ExecutionMode::kSimulate);
  SpeculativeOptions sopts;
  sopts.window = 3;
  sopts.sim_acceptance = 1.0;  // every draft accepted
  SpeculativeDecoder decoder(engine.get(), &cache, sopts);
  decoder.Prefill(RepetitivePrompt());
  const std::vector<int32_t> out = decoder.Generate(10);
  EXPECT_EQ(out.size(), 10u);

  // 4 + 4 + 2: the final round caps its window at the tokens remaining, so
  // the generation never overshoots `count`.
  const SpeculativeStats& s = decoder.stats();
  EXPECT_EQ(s.emitted_tokens, 10);
  EXPECT_EQ(s.verify_steps, 3);
  EXPECT_EQ(s.rollback_tokens, 0);
  EXPECT_EQ(s.draft_tokens, s.accepted_tokens);
  EXPECT_GT(s.tokens_per_step(), 3.0);
  EXPECT_EQ(cache.length(),
            static_cast<int64_t>(RepetitivePrompt().size()) + 10);
}

TEST(SpeculativeDecoderTest, ZeroAcceptanceDegeneratesToPlainDecode) {
  const ModelConfig cfg = ModelConfig::Tiny();
  const ModelWeights weights =
      ModelWeights::Create(cfg, ExecutionMode::kSimulate);
  core::Platform platform(core::PlatformOptionsFor(kEngine));
  auto engine = core::CreateEngine(kEngine, &platform, &weights,
                                   SpecEngineOptions(/*window=*/2));

  KvCache cache(cfg, 128, ExecutionMode::kSimulate);
  SpeculativeOptions sopts;
  sopts.window = 2;
  sopts.sim_acceptance = 0.0;
  SpeculativeDecoder decoder(engine.get(), &cache, sopts);
  decoder.Prefill(RepetitivePrompt());
  decoder.Generate(6);

  const SpeculativeStats& s = decoder.stats();
  EXPECT_EQ(s.emitted_tokens, 6);
  EXPECT_EQ(s.verify_steps, 6);  // one emitted token per step
  EXPECT_EQ(s.accepted_tokens, 0);
  EXPECT_EQ(s.rollback_tokens, s.draft_tokens);
  EXPECT_GT(s.draft_tokens, 0);
  EXPECT_EQ(cache.length(),
            static_cast<int64_t>(RepetitivePrompt().size()) + 6);
}

TEST(SpeculativeDecoderTest, DraftModelStaysInLockstep) {
  const ModelConfig cfg = ModelConfig::Tiny();
  const ModelConfig draft_cfg = ModelConfig::TinyWide();
  const ModelWeights weights =
      ModelWeights::Create(cfg, ExecutionMode::kSimulate);
  const ModelWeights draft_weights =
      ModelWeights::Create(draft_cfg, ExecutionMode::kSimulate);
  core::Platform platform(core::PlatformOptionsFor(kEngine));
  auto engine = core::CreateEngine(kEngine, &platform, &weights,
                                   SpecEngineOptions(/*window=*/2));
  auto draft_engine = core::CreateEngine(kEngine, &platform, &draft_weights,
                                         SpecEngineOptions(/*window=*/0));

  KvCache cache(cfg, 128, ExecutionMode::kSimulate);
  SpeculativeOptions sopts;
  sopts.window = 2;
  sopts.sim_acceptance = 0.5;
  sopts.draft_engine = draft_engine.get();
  SpeculativeDecoder decoder(engine.get(), &cache, sopts);
  decoder.Prefill(RepetitivePrompt());
  const std::vector<int32_t> out = decoder.Generate(9);
  EXPECT_EQ(out.size(), 9u);
  EXPECT_EQ(decoder.stats().emitted_tokens, 9);
  // Clocks stay in sync: drafting advances the target's host clock too.
  EXPECT_GE(engine->host_now(), draft_engine->host_now());
}

// --- serving scheduler -----------------------------------------------

struct Harness {
  std::unique_ptr<core::Platform> platform;
  std::unique_ptr<core::EngineBase> engine;
};

Harness MakeServingHarness(const ModelWeights& weights,
                           const SchedulerOptions& sopts) {
  Harness h;
  h.platform =
      std::make_unique<core::Platform>(core::PlatformOptionsFor(kEngine));
  StatusOr<std::unique_ptr<core::EngineBase>> engine =
      BuildServingEngine(h.platform.get(), &weights, sopts);
  HCHECK(engine.ok());
  h.engine = std::move(engine).value();
  return h;
}

std::vector<Request> Burst(int n, int prompt_len, int decode_len) {
  std::vector<Request> reqs;
  for (int i = 0; i < n; ++i) {
    reqs.push_back(Request::Chat(i, /*arrival=*/0, prompt_len, decode_len));
  }
  return reqs;
}

TEST(SchedulerSpeculationTest, ValidateRejectsBadOptions) {
  SchedulerOptions bad_window;
  bad_window.speculative_window = -1;
  EXPECT_FALSE(SchedulerOptions::Validated(bad_window).ok());

  SchedulerOptions bad_acceptance;
  bad_acceptance.speculative_window = 2;
  bad_acceptance.speculative_acceptance = 1.5;
  EXPECT_FALSE(SchedulerOptions::Validated(bad_acceptance).ok());
}

TEST(SchedulerSpeculationTest, EmitsExactlyDecodeLenAndCountsDrafts) {
  const ModelConfig cfg = ModelConfig::Tiny();
  const ModelWeights weights =
      ModelWeights::Create(cfg, ExecutionMode::kSimulate);
  SchedulerOptions opts;
  opts.max_decode_batch = 4;
  opts.speculative_window = 2;
  opts.speculative_acceptance = 1.0;
  opts.kv_budget_bytes = KvCache::BytesForTokens(cfg, 1024);
  Harness h = MakeServingHarness(weights, opts);
  const ServingMetrics m = IterationScheduler(h.engine.get(), opts)
                               .Run(RequestQueue(Burst(4, 12, 10)));

  ASSERT_EQ(m.requests.size(), 4u);
  for (const RequestMetrics& r : m.requests) {
    // Speculation never overshoots the request's decode budget, and
    // rejected drafts are never counted as emitted tokens.
    EXPECT_EQ(r.decoded_tokens, 10);
    EXPECT_GT(r.draft_tokens, 0);
    EXPECT_LE(r.accepted_tokens, r.draft_tokens);
    EXPECT_GT(r.accepted_tokens, 0);  // acceptance 1.0 accepts every draft
  }
  EXPECT_GT(m.total_accepted_tokens(), 0);
  EXPECT_GT(m.speculative_acceptance_rate(), 0.0);

  // Full-window acceptance finishes in fewer batched iterations than plain
  // decoding needs.
  SchedulerOptions plain = opts;
  plain.speculative_window = 0;
  Harness hp = MakeServingHarness(weights, plain);
  const ServingMetrics mp = IterationScheduler(hp.engine.get(), plain)
                                .Run(RequestQueue(Burst(4, 12, 10)));
  EXPECT_LT(m.decode_iterations, mp.decode_iterations);
  EXPECT_EQ(mp.total_draft_tokens(), 0);
}

TEST(SchedulerSpeculationTest, ZeroAcceptanceStillCompletesEveryRequest) {
  const ModelConfig cfg = ModelConfig::Tiny();
  const ModelWeights weights =
      ModelWeights::Create(cfg, ExecutionMode::kSimulate);
  SchedulerOptions opts;
  opts.max_decode_batch = 2;
  opts.speculative_window = 3;
  opts.speculative_acceptance = 0.0;
  opts.kv_budget_bytes = KvCache::BytesForTokens(cfg, 1024);
  Harness h = MakeServingHarness(weights, opts);
  const ServingMetrics m = IterationScheduler(h.engine.get(), opts)
                               .Run(RequestQueue(Burst(3, 8, 6)));
  for (const RequestMetrics& r : m.requests) {
    EXPECT_EQ(r.decoded_tokens, 6);
    EXPECT_EQ(r.accepted_tokens, 0);
    EXPECT_GT(r.draft_tokens, 0);
  }
  EXPECT_EQ(m.total_accepted_tokens(), 0);
}

TEST(SchedulerSpeculationTest, DeterministicPerSeedAndJsonCarriesCounters) {
  const ModelConfig cfg = ModelConfig::Tiny();
  const ModelWeights weights =
      ModelWeights::Create(cfg, ExecutionMode::kSimulate);
  std::vector<std::string> jsons;
  for (int run = 0; run < 2; ++run) {
    SchedulerOptions opts;
    opts.max_decode_batch = 4;
    opts.speculative_window = 2;
    opts.speculative_acceptance = 0.6;
    opts.speculative_seed = 99;
    opts.kv_budget_bytes = KvCache::BytesForTokens(cfg, 1024);
    Harness h = MakeServingHarness(weights, opts);
    const ServingMetrics m = IterationScheduler(h.engine.get(), opts)
                                 .Run(RequestQueue(Burst(4, 16, 12)));
    jsons.push_back(m.ToJson());
  }
  EXPECT_EQ(jsons[0], jsons[1]);
  EXPECT_NE(jsons[0].find("\"draft_tokens\""), std::string::npos);
  EXPECT_NE(jsons[0].find("\"accepted_tokens\""), std::string::npos);
  EXPECT_NE(jsons[0].find("\"acceptance_rate\""), std::string::npos);
}

// Regression: a KV pool sized so that speculative reservations collide used
// to abort inside BeginStep ("KV pool exhausted"). The scheduler now sheds
// the window, evicts, or waits — and every request still completes.
TEST(SchedulerSpeculationTest, TightPoolShedsWindowInsteadOfAborting) {
  const ModelConfig cfg = ModelConfig::Tiny();
  const ModelWeights weights =
      ModelWeights::Create(cfg, ExecutionMode::kSimulate);
  SchedulerOptions opts;
  opts.max_decode_batch = 4;
  opts.speculative_window = 2;
  opts.speculative_acceptance = 0.7;
  opts.kv_block_tokens = 8;
  // ~2 conversations' worth of blocks for 4 concurrent requests.
  opts.kv_budget_bytes = KvCache::BytesForTokens(cfg, 64);
  Harness h = MakeServingHarness(weights, opts);
  const ServingMetrics m = IterationScheduler(h.engine.get(), opts)
                               .Run(RequestQueue(Burst(4, 16, 12)));
  ASSERT_EQ(m.requests.size(), 4u);
  for (const RequestMetrics& r : m.requests) {
    EXPECT_EQ(r.decoded_tokens, 12);
  }
}

}  // namespace
}  // namespace heterollm::serve
