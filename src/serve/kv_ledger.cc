#include "src/serve/kv_ledger.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

namespace heterollm::serve {

using model::KvCache;

namespace {

int64_t CheckedTotalBlocks(const model::ModelConfig& cfg, Bytes budget,
                           int64_t block_tokens) {
  const int64_t total = KvBlockPool::BlocksForBudget(cfg, budget, block_tokens);
  HCHECK_MSG(total >= 1, "kv_budget_bytes smaller than one KV block");
  return total;
}

}  // namespace

KvLedger::KvLedger(const model::ModelConfig& config,
                   const SchedulerOptions& options)
    : bt_(options.kv_block_tokens),
      total_blocks_(
          CheckedTotalBlocks(config, options.kv_budget_bytes, bt_)),
      use_prefix_(options.enable_prefix_cache),
      spec_window_(options.speculative_window),
      pool_(config, bt_, total_blocks_, model::ExecutionMode::kSimulate),
      prefix_(&pool_) {}

KvLedger::~KvLedger() {
  sessions_.clear();
  parked_.clear();
  prefix_.EvictAll();
  HCHECK_MSG(pool_.used_blocks() == 0,
             "KV blocks outlive every session, parked prompt and prefix");
}

bool KvLedger::Relieve(const Pressure& pressure) {
  for (;;) {
    const int64_t want = pressure.want();
    if (pool_.available_blocks() >= want) {
      return true;
    }
    const bool cap_fits =
        !pressure.cap_gated || want <= pool_.usable_blocks();
    if (cap_fits && prefix_.EvictUntilFree(want) > 0) {
      continue;
    }
    if (pressure.shed && pressure.shed()) {
      continue;
    }
    if (cap_fits && DropOneParked(pressure.keep)) {
      continue;
    }
    if (pressure.preempt && pressure.preempt()) {
      continue;
    }
    return false;
  }
}

int64_t KvLedger::Footprint(const Request& r) const {
  const int64_t spec_slack = r.decode_len > 0 ? spec_window_ : 0;
  return KvCache::BlocksForTokens(r.prompt_len + r.decode_len + spec_slack,
                                  bt_);
}

KvLedger::Admission KvLedger::Admit(size_t idx, const Request& r,
                                    const Move& preempt) {
  const int64_t footprint = Footprint(r);
  HCHECK_MSG(footprint <= total_blocks_,
             "request KV footprint exceeds the whole budget");
  // A parked prompt is resumed, not rebuilt: its committed blocks discount
  // the footprint exactly like adopted prefix blocks do, and the prefix
  // lookup is skipped — the parked cache already holds any cached head it
  // once adopted.
  const auto parked_it = parked_.find(idx);
  const bool resuming = parked_it != parked_.end();
  // The lookup pins the matched blocks (refs held here until adopted or
  // released), so the ladder's prefix eviction cannot take them.
  PrefixCache::Match hit;
  if (!resuming && use_prefix_ && !r.prompt_tokens.empty()) {
    hit = prefix_.Acquire(r.prompt_tokens);
  }
  const int64_t held = resuming ? parked_it->second.cache->held_blocks()
                                : static_cast<int64_t>(hit.blocks.size());
  const int64_t need = footprint - held;
  Pressure pressure;
  pressure.want = [&] { return need + Headroom(); };
  pressure.keep = idx;
  pressure.cap_gated = true;
  pressure.preempt = preempt;
  if (!Relieve(pressure)) {
    for (int32_t b : hit.blocks) {
      pool_.ReleaseBlock(b);
    }
    return {};
  }

  Session session;
  session.footprint = footprint;
  if (resuming) {
    session.cache = std::move(parked_it->second.cache);
    parked_.erase(parked_it);
  } else {
    const int64_t spec_slack = r.decode_len > 0 ? spec_window_ : 0;
    session.cache = std::make_unique<KvCache>(pool_.MakeCache(
        r.prompt_len + std::max(r.decode_len, 1) + spec_slack));
    if (!hit.blocks.empty()) {
      session.cache->AdoptPrefix(hit.blocks, hit.tokens);  // refs transferred
    }
  }
  KvCache* cache = session.cache.get();
  HCHECK_MSG(sessions_.emplace(idx, std::move(session)).second,
             "request admitted twice");
  return {cache, resuming};
}

bool KvLedger::FitsWithout(size_t victim, int64_t footprint) const {
  int64_t reserved = footprint;
  for (const auto& [idx, session] : sessions_) {
    if (idx != victim) {
      reserved += session.footprint;
    }
  }
  return reserved <= pool_.usable_blocks();
}

void KvLedger::ReserveStep(KvCache* cache, int64_t rows) {
  HCHECK_MSG(cache->TryReserveStep(rows),
             "KV step reservation failed after the ladder made room");
}

void KvLedger::CommitPrompt(size_t idx,
                            const std::vector<int32_t>& prompt_tokens) {
  if (!use_prefix_ || prompt_tokens.empty()) {
    return;
  }
  const KvCache& cache = *sessions_.at(idx).cache;
  prefix_.Insert(prompt_tokens, cache.blocks(), cache.length());
}

void KvLedger::Release(size_t idx, int64_t park_tokens) {
  const auto it = sessions_.find(idx);
  HCHECK(it != sessions_.end());
  if (park_tokens > 0) {
    it->second.cache->RollbackTo(park_tokens);
    parked_[idx] = ParkedPrompt{std::move(it->second.cache), parked_stamp_++};
  }
  sessions_.erase(it);  // a cache still here destructs: blocks return
}

void KvLedger::ApplyKvSqueeze(double scale) {
  pool_.set_usable_blocks(
      static_cast<int64_t>(std::floor(total_blocks_ * scale + 1e-9)));
}

int64_t KvLedger::ProbePrefixTokens(const std::vector<int32_t>& prompt) const {
  return use_prefix_ ? prefix_.ProbeTokens(prompt) : 0;
}

int64_t KvLedger::Headroom() const {
  int64_t reserved = 0;
  for (const auto& [idx, session] : sessions_) {
    reserved += session.footprint - session.cache->held_blocks();
  }
  return reserved;
}

bool KvLedger::DropOneParked(size_t keep) {
  auto oldest = parked_.end();
  for (auto it = parked_.begin(); it != parked_.end(); ++it) {
    if (it->first != keep && (oldest == parked_.end() ||
                              it->second.stamp < oldest->second.stamp)) {
      oldest = it;
    }
  }
  if (oldest == parked_.end()) {
    return false;
  }
  parked_.erase(oldest);  // the cache destructs: blocks return to the pool
  return true;
}

Status KvLedger::CheckInvariants() const {
  std::vector<int> holders(static_cast<size_t>(total_blocks_), 0);
  auto count = [&](const std::vector<int32_t>& blocks) {
    for (int32_t b : blocks) {
      ++holders[static_cast<size_t>(b)];
    }
  };
  for (const auto& [idx, session] : sessions_) {
    if (session.cache->held_blocks() > session.footprint) {
      return InternalError("session " + std::to_string(idx) + " holds " +
                           std::to_string(session.cache->held_blocks()) +
                           " blocks over its footprint of " +
                           std::to_string(session.footprint));
    }
    count(session.cache->blocks());
  }
  for (const auto& [idx, parked] : parked_) {
    count(parked.cache->blocks());
  }
  count(prefix_.blocks());
  const std::vector<int> refs = pool_.RefCounts();
  int64_t used = 0;
  for (size_t b = 0; b < refs.size(); ++b) {
    if (refs[b] != holders[b]) {
      return InternalError("block " + std::to_string(b) + " has refcount " +
                           std::to_string(refs[b]) + " but " +
                           std::to_string(holders[b]) + " holders");
    }
    used += refs[b] > 0 ? 1 : 0;
  }
  if (used != pool_.used_blocks()) {
    return InternalError("pool counts " +
                         std::to_string(pool_.used_blocks()) +
                         " used blocks, refcounts show " +
                         std::to_string(used));
  }
  return Status::Ok();
}

}  // namespace heterollm::serve
