#include "src/serve/speculative.h"

#include <algorithm>
#include <utility>

#include "src/common/status.h"

namespace heterollm::serve {

using model::ExecutionMode;
using model::KvCache;
using tensor::Shape;
using tensor::Tensor;

Tensor TokenEmbedding(const model::ModelConfig& config, int32_t token,
                      ExecutionMode mode, uint64_t seed) {
  const Shape shape({1, config.hidden});
  if (mode == ExecutionMode::kSimulate) {
    return Tensor::Deferred(shape, tensor::DType::kFp16);
  }
  // Procedural embedding table: row `token` is regenerated on demand from a
  // (seed, token)-derived stream, so the table costs no memory and the same
  // token always embeds identically.
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(token) + 1);
  return Tensor::Random(shape, rng, 0.1f, tensor::DType::kFp16);
}

int32_t Argmax(const Tensor& logits, int64_t row) {
  HCHECK(logits.has_data());
  HCHECK(row >= 0 && row < logits.shape().rows());
  const int64_t vocab = logits.shape().cols();
  int64_t best = 0;
  float best_v = logits.At(row, 0);
  for (int64_t c = 1; c < vocab; ++c) {
    const float v = logits.At(row, c);
    if (v > best_v) {
      best_v = v;
      best = c;
    }
  }
  return static_cast<int32_t>(best);
}

NgramDrafter::NgramDrafter(int order) : order_(order) { HCHECK(order >= 1); }

void NgramDrafter::Observe(int32_t token) {
  const int64_t n = static_cast<int64_t>(history_.size());
  for (int len = 1; len <= order_ && len <= n; ++len) {
    std::vector<int32_t> ctx(history_.end() - len, history_.end());
    table_[std::move(ctx)] = token;
  }
  history_.push_back(token);
}

void NgramDrafter::ObserveAll(const std::vector<int32_t>& tokens) {
  for (int32_t t : tokens) {
    Observe(t);
  }
}

std::vector<int32_t> NgramDrafter::Draft(int32_t next, int k) const {
  std::vector<int32_t> ctx = history_;
  ctx.push_back(next);
  std::vector<int32_t> drafts;
  drafts.reserve(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) {
    int32_t proposal = ctx.back();  // fallback: repeat the last token
    const int64_t n = static_cast<int64_t>(ctx.size());
    for (int len = std::min<int64_t>(order_, n); len >= 1; --len) {
      std::vector<int32_t> key(ctx.end() - len, ctx.end());
      auto it = table_.find(key);
      if (it != table_.end()) {
        proposal = it->second;
        break;
      }
    }
    drafts.push_back(proposal);
    ctx.push_back(proposal);
  }
  return drafts;
}

SpeculativeDecoder::SpeculativeDecoder(core::EngineBase* engine,
                                       KvCache* cache,
                                       const SpeculativeOptions& options)
    : engine_(engine),
      cache_(cache),
      options_(options),
      mode_(engine->mode()),
      ngram_(options.ngram_order),
      sim_rng_(options.seed) {
  HCHECK(engine != nullptr && cache != nullptr);
  HCHECK(options.window >= 0);
  HCHECK(options.sim_acceptance >= 0 && options.sim_acceptance <= 1.0);
}

void SpeculativeDecoder::Prefill(const std::vector<int32_t>& prompt) {
  HCHECK_MSG(!prefilled_, "Prefill must run exactly once");
  HCHECK(!prompt.empty());
  prefilled_ = true;
  const model::ModelConfig& cfg = engine_->model_config();

  // Prompt embeddings (one deferred block in simulate mode).
  Tensor input;
  if (mode_ == ExecutionMode::kSimulate) {
    input = Tensor::Deferred(
        Shape({static_cast<int64_t>(prompt.size()), cfg.hidden}),
        tensor::DType::kFp16);
  } else {
    std::vector<Tensor> rows;
    rows.reserve(prompt.size());
    for (int32_t t : prompt) {
      rows.push_back(TokenEmbedding(cfg, t, mode_, options_.seed));
    }
    input = Tensor::ConcatRows(rows);
  }
  core::PhaseStats ps = engine_->Execute(
      core::Batch::One(core::Phase::kPrefill, cache_, input));

  if (options_.draft_engine != nullptr) {
    const model::ModelConfig& dcfg = options_.draft_engine->model_config();
    draft_cache_ = std::make_unique<KvCache>(dcfg, cache_->capacity(), mode_);
    Tensor dinput;
    if (mode_ == ExecutionMode::kSimulate) {
      dinput = Tensor::Deferred(
          Shape({static_cast<int64_t>(prompt.size()), dcfg.hidden}),
          tensor::DType::kFp16);
    } else {
      std::vector<Tensor> rows;
      rows.reserve(prompt.size());
      for (int32_t t : prompt) {
        rows.push_back(TokenEmbedding(dcfg, t, mode_, options_.seed));
      }
      dinput = Tensor::ConcatRows(rows);
    }
    options_.draft_engine->AdvanceHostTo(engine_->host_now());
    options_.draft_engine->Execute(
        core::Batch::One(core::Phase::kPrefill, draft_cache_.get(), dinput));
    engine_->AdvanceHostTo(options_.draft_engine->host_now());
  }

  tokens_ = prompt;
  ngram_.ObserveAll(prompt);
  // First pending token: the prefill logits' greedy pick (compute), or a
  // synthetic id (simulate — only timing matters, ids just feed the
  // drafter deterministically).
  pending_ = ps.logits.has_data()
                 ? Argmax(ps.logits, ps.logits.shape().rows() - 1)
                 : static_cast<int32_t>(sim_rng_.NextBelow(
                       static_cast<uint64_t>(std::max<int64_t>(cfg.vocab, 2))));
}

void SpeculativeDecoder::CatchUpDraft() {
  core::EngineBase* draft = options_.draft_engine;
  const model::ModelConfig& dcfg = draft->model_config();
  while (draft_cache_->length() < cache_->length()) {
    const int32_t tok = tokens_[static_cast<size_t>(draft_cache_->length())];
    draft->Execute(core::Batch::One(
        core::Phase::kDecode, draft_cache_.get(),
        TokenEmbedding(dcfg, tok, mode_, options_.seed)));
  }
}

std::vector<int32_t> SpeculativeDecoder::DraftWindow(int k) {
  if (k == 0) {
    return {};
  }
  if (options_.draft_engine == nullptr) {
    // Host-side table lookups; cheap, charged to the host clock.
    engine_->AdvanceHostTo(engine_->host_now() +
                           options_.draft_cost_us * static_cast<double>(k));
    return ngram_.Draft(pending_, k);
  }
  core::EngineBase* draft = options_.draft_engine;
  const model::ModelConfig& dcfg = draft->model_config();
  draft->AdvanceHostTo(engine_->host_now());
  CatchUpDraft();
  // N-gram proposals stand in for the draft model's picks when its logits
  // are deferred (simulate mode): the draft engine still prices every step.
  std::vector<int32_t> fallback = ngram_.Draft(pending_, k);
  std::vector<int32_t> drafts;
  drafts.reserve(static_cast<size_t>(k));
  int32_t prev = pending_;
  for (int i = 0; i < k; ++i) {
    core::PhaseStats ps = draft->Execute(core::Batch::One(
        core::Phase::kDecode, draft_cache_.get(),
        TokenEmbedding(dcfg, prev, mode_, options_.seed)));
    const int32_t d = ps.logits.has_data()
                          ? Argmax(ps.logits, ps.logits.shape().rows() - 1)
                          : fallback[static_cast<size_t>(i)];
    drafts.push_back(d);
    prev = d;
  }
  engine_->AdvanceHostTo(draft->host_now());
  return drafts;
}

std::vector<int32_t> SpeculativeDecoder::Generate(int count) {
  HCHECK_MSG(prefilled_, "Generate requires a Prefill first");
  HCHECK(count >= 0);
  const model::ModelConfig& cfg = engine_->model_config();
  std::vector<int32_t> out;
  out.reserve(static_cast<size_t>(count));

  while (static_cast<int>(out.size()) < count) {
    const int remaining = count - static_cast<int>(out.size());
    // k drafts emit at most k+1 tokens, so cap the window at remaining-1:
    // the final round degenerates to a plain decode step.
    const int k = std::min(options_.window, remaining - 1);
    const MicroSeconds round_start = engine_->host_now();
    const std::vector<int32_t> drafts = DraftWindow(k);

    // Verify [pending, d1..dk] in one batched pass: k+1 rows appended, all
    // rows' logits returned.
    std::vector<Tensor> rows;
    rows.reserve(static_cast<size_t>(k) + 1);
    rows.push_back(TokenEmbedding(cfg, pending_, mode_, options_.seed));
    for (int32_t d : drafts) {
      rows.push_back(TokenEmbedding(cfg, d, mode_, options_.seed));
    }
    const Tensor input =
        mode_ == ExecutionMode::kSimulate
            ? Tensor::Deferred(Shape({static_cast<int64_t>(k) + 1, cfg.hidden}),
                               tensor::DType::kFp16)
            : Tensor::ConcatRows(rows);
    const int64_t len_before = cache_->length();
    core::Batch verify = core::Batch::One(core::Phase::kDecode, cache_, input);
    verify.logits_rows = static_cast<int64_t>(k) + 1;
    core::PhaseStats ps = engine_->Execute(verify);

    // Accept the longest draft prefix the target model agrees with.
    int accepted = 0;
    int32_t bonus;
    if (ps.logits.has_data()) {
      while (accepted < k &&
             drafts[static_cast<size_t>(accepted)] ==
                 Argmax(ps.logits, accepted)) {
        ++accepted;
      }
      bonus = Argmax(ps.logits, accepted);
    } else {
      while (accepted < k && sim_rng_.NextUnit() < options_.sim_acceptance) {
        ++accepted;
      }
      bonus = static_cast<int32_t>(sim_rng_.NextBelow(
          static_cast<uint64_t>(std::max<int64_t>(cfg.vocab, 2))));
    }

    // Emit pending + accepted drafts; roll the rejected suffix back. The
    // new pending token's KV is not in the cache — the same state a plain
    // greedy loop is in after sampling.
    out.push_back(pending_);
    ngram_.Observe(pending_);
    tokens_.push_back(pending_);
    for (int i = 0; i < accepted; ++i) {
      const int32_t d = drafts[static_cast<size_t>(i)];
      out.push_back(d);
      ngram_.Observe(d);
      tokens_.push_back(d);
    }
    cache_->RollbackTo(len_before + 1 + accepted);
    if (draft_cache_ != nullptr &&
        draft_cache_->length() > cache_->length()) {
      draft_cache_->RollbackTo(cache_->length());
    }
    pending_ = bonus;

    stats_.emitted_tokens += 1 + accepted;
    stats_.draft_tokens += k;
    stats_.accepted_tokens += accepted;
    stats_.rollback_tokens += k - accepted;
    ++stats_.verify_steps;
    stats_.decode_time += engine_->host_now() - round_start;
  }
  return out;
}

}  // namespace heterollm::serve
