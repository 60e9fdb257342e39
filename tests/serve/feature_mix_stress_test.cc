// Seeded feature-mix stress suite for the serving scheduler. Each seed
// draws one point of the policy cross-product — iteration policy ×
// speculative window × prefix cache × admission order — and a Tiny-model
// trace of shared-prefix prompts under a random scripted KV squeeze, lifted
// or permanent. After every round the KV ledger's block accounting must
// audit clean, and every request must complete exactly once with its whole
// decode length.

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/engine_registry.h"
#include "src/model/kv_cache.h"
#include "src/serve/iteration_scheduler.h"
#include "src/serve/replica.h"
#include "src/serve/request_queue.h"
#include "src/serve/serving_metrics.h"

namespace heterollm::serve {
namespace {

using model::KvCache;
using model::ModelConfig;
using model::ModelWeights;

constexpr const char* kEngine = "Hetero-tensor";
constexpr int kSeeds = 400;
constexpr int64_t kBlock = 16;

// One seed's configuration and trace.
struct Mix {
  ReplicaOptions ropts;
  std::vector<Request> requests;
};

Mix DrawMix(uint64_t seed) {
  Rng rng(seed);
  Mix mix;
  SchedulerOptions& s = mix.ropts.scheduler;
  constexpr IterationPolicy kPolicies[] = {IterationPolicy::kSerial,
                                           IterationPolicy::kPrefillFirst,
                                           IterationPolicy::kHybridChunked};
  s.iteration = kPolicies[rng.NextBelow(3)];
  s.speculative_window = rng.NextBelow(2) == 0 ? 0 : 2;
  s.enable_prefix_cache = rng.NextBelow(2) == 0;
  s.admission = rng.NextBelow(2) == 0 ? AdmissionPolicy::kFifo
                                      : AdmissionPolicy::kPriority;
  s.max_decode_batch = 1 + static_cast<int>(rng.NextBelow(4));
  s.prefill_chunk_tokens = 32 + 32 * static_cast<int64_t>(rng.NextBelow(4));
  s.kv_block_tokens = kBlock;
  s.speculative_seed = seed;
  const int64_t total_blocks = 16 + static_cast<int64_t>(rng.NextBelow(17));
  s.kv_budget_bytes =
      KvCache::BytesForTokens(ModelConfig::Tiny(), total_blocks * kBlock);

  // A permanent squeeze keeps every request servable: footprints stay
  // inside the squeezed cap. A lifted one may squeeze below them.
  const bool permanent = rng.NextBelow(3) == 0;
  const double scale = 0.25 + 0.25 * static_cast<double>(rng.NextBelow(3));
  const int64_t cap = permanent
                          ? static_cast<int64_t>(total_blocks * scale + 1e-9)
                          : total_blocks;
  const int64_t max_tokens = cap * kBlock - s.speculative_window;

  // Two shared system-prompt heads; every prompt starts with one of them.
  const int32_t heads[2] = {1000, 2000};
  const int n = 4 + static_cast<int>(rng.NextBelow(5));
  MicroSeconds arrival = 0;
  for (int i = 0; i < n; ++i) {
    arrival += rng.NextUniform(0, 3e3);
    const int64_t head = kBlock * static_cast<int64_t>(1 + rng.NextBelow(2));
    int prompt = static_cast<int>(head + 1 + rng.NextBelow(96));
    int decode = static_cast<int>(rng.NextBelow(33));
    prompt = static_cast<int>(std::min<int64_t>(prompt, max_tokens - 1));
    decode = static_cast<int>(std::min<int64_t>(decode, max_tokens - prompt));
    std::vector<int32_t> tokens(static_cast<size_t>(prompt));
    const int32_t base = heads[rng.NextBelow(2)];
    for (int t = 0; t < prompt; ++t) {
      tokens[static_cast<size_t>(t)] =
          t < head ? base + t : 5000 + 200 * i + t;
    }
    Request r = Request::Chat(i, arrival, prompt, decode, tokens);
    r.priority = static_cast<int>(rng.NextBelow(3));
    mix.requests.push_back(r);
  }

  mix.ropts.platform = core::PlatformOptionsFor(kEngine);
  mix.ropts.engine = kEngine;
  sim::ConditionEvent squeeze;
  squeeze.time = rng.NextUniform(0, 15e3);
  squeeze.kv_budget_scale = scale;
  mix.ropts.platform.conditions.push_back(squeeze);
  if (!permanent) {
    sim::ConditionEvent lift;
    lift.time = squeeze.time + rng.NextUniform(1e3, 30e3);
    lift.kv_budget_scale = 1.0;
    mix.ropts.platform.conditions.push_back(lift);
  }
  return mix;
}

TEST(FeatureMixStressTest, LedgerAuditsCleanAndEveryRequestCompletesOnce) {
  const ModelWeights weights =
      ModelWeights::Create(ModelConfig::Tiny(), model::ExecutionMode::kSimulate);
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE(seed);
    const Mix mix = DrawMix(seed);
    auto replica = Replica::Create(mix.ropts, &weights);
    ASSERT_TRUE(replica.ok());
    Replica& r = **replica;
    r.BeginWindow();
    for (const Request& req : mix.requests) {
      r.Submit(req);
    }
    std::vector<int> completions(mix.requests.size(), 0);
    while (r.StepRound()) {
      const Status audit = r.scheduler().CheckInvariants();
      ASSERT_TRUE(audit.ok()) << audit.message();
      for (const CompletionEvent& done : r.DrainCompletions()) {
        ASSERT_GE(done.id, 0);
        ASSERT_LT(done.id, static_cast<int>(completions.size()));
        ++completions[static_cast<size_t>(done.id)];
      }
    }
    const ServingMetrics m = r.EndWindow();
    for (size_t i = 0; i < mix.requests.size(); ++i) {
      EXPECT_EQ(completions[i], 1) << "request " << i;
      EXPECT_EQ(m.requests[i].decoded_tokens, mix.requests[i].decode_len)
          << "request " << i;
    }
  }
}

}  // namespace
}  // namespace heterollm::serve
