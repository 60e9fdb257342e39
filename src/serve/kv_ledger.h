// The KV ledger: every KV-block decision of one serving window.
//
// The ledger sits beside the scheduler's round loop, the way LLMInfer's
// `BlockManager` sits beside its engine. It owns the block pool
// (src/serve/kv_pool.h) and the prefix cache (src/serve/prefix_cache.h),
// the KV cache and footprint reservation of every admitted session, the
// parked prompts of preempted hybrid sessions, and the squeeze cap. The
// scheduler (src/serve/iteration_scheduler.h) decides *which* sessions run
// a round; the ledger decides whether their blocks are there and, when
// they are not, how room is made.
//
// Admission reserves each session's whole remaining footprint (prompt +
// decode + speculative window, minus blocks adopted from the prefix cache
// or kept parked): admitting on current occupancy alone invites mid-decode
// exhaustion and eviction churn that discards decoded progress. Blocks are
// still allocated only as tokens are appended, so shared prefix blocks are
// counted once across sessions.
//
// Pressure is relieved by one ladder (`Relieve`), shared by admission, the
// decode step and the prefill chunk. It tries the cheapest move first:
//
//   1. evict LRU unpinned cached prefixes;
//   2. shed the speculative window to one row (decode only: the caller's
//      move);
//   3. drop the least recently parked prompt, never the one being resumed
//      (its owner re-prefills from scratch when re-admitted);
//   4. preempt one active session (the caller's move: the scheduler picks
//      the victim and parks or drops its cache through `Release`);
//   5. give up — the round waits for the next condition event.
//
// Outside a scripted KV squeeze the decode and chunk rungs never fire:
// admission reserved every block a session will append.

#ifndef SRC_SERVE_KV_LEDGER_H_
#define SRC_SERVE_KV_LEDGER_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/model/kv_cache.h"
#include "src/model/model_config.h"
#include "src/serve/iteration_scheduler.h"
#include "src/serve/kv_pool.h"
#include "src/serve/prefix_cache.h"
#include "src/serve/request_queue.h"

namespace heterollm::serve {

class KvLedger {
 public:
  // A `keep` that protects no parked prompt.
  static constexpr size_t kNoRequest = std::numeric_limits<size_t>::max();

  // A caller-supplied rung (2 or 4): makes one move and returns true, or
  // returns false when it has nothing left to give.
  using Move = std::function<bool()>;

  // What one caller asks of the ladder.
  struct Pressure {
    // Blocks that must be available under the usable cap. Re-read after
    // every move: a shed window or a preempted session changes it.
    std::function<int64_t()> want;
    // The request whose parked prompt is being resumed: never dropped.
    size_t keep = kNoRequest;
    // Rungs 1 and 3 run only while `want()` fits the usable cap (the
    // admission rule): they free physical blocks but never raise the cap,
    // so past it only preemption can still help.
    bool cap_gated = false;
    Move shed;     // rung 2; empty: not allowed
    Move preempt;  // rung 4; empty: not allowed
  };

  // Carves `options.kv_budget_bytes` into `kv_block_tokens`-token blocks
  // (HCHECKs that at least one fits) and reads the prefix-cache switch and
  // the speculative window, which every decoding footprint reserves.
  KvLedger(const model::ModelConfig& config, const SchedulerOptions& options);
  // Releases sessions, parked prompts and the prefix cache, in that order,
  // and HCHECKs that the pool is then empty.
  ~KvLedger();

  KvLedger(const KvLedger&) = delete;
  KvLedger& operator=(const KvLedger&) = delete;

  // The pressure ladder. Returns true once `want()` blocks are available,
  // false when every allowed rung is spent.
  bool Relieve(const Pressure& pressure);

  // --- sessions ------------------------------------------------------------

  // Blocks `r` holds over its whole life: prompt, decode and — when it
  // decodes — the speculative window a verify step transiently appends.
  int64_t Footprint(const Request& r) const;

  struct Admission {
    model::KvCache* cache = nullptr;  // null: not admitted
    bool resumed = false;             // a parked prompt was resumed
  };
  // Admits request `idx`: resumes its parked prompt, or opens a fresh cache
  // over the longest cached prefix of its prompt, once the ladder (cap
  // gated, rung 4 = `preempt`) has made its remaining footprint fit beside
  // every other session's unallocated reservation. On failure every prefix
  // pin is released and nothing changes. HCHECKs that the footprint fits
  // the whole budget (a request that never fits would evict forever).
  Admission Admit(size_t idx, const Request& r, const Move& preempt);
  // True when preempting session `victim` would leave room under the
  // usable cap for a newcomer of `footprint` blocks (shared prefix blocks
  // count once per holder, so this is conservative).
  bool FitsWithout(size_t victim, int64_t footprint) const;
  // Reserves the blocks of a `rows`-row step on `cache`. The ladder has
  // made room: `BlocksNeededFor` is exact or conservative, so a failure
  // here is a bug (HCHECK).
  void ReserveStep(model::KvCache* cache, int64_t rows);
  // Session `idx` committed its whole prompt: the blocks become
  // prefix-cache entries (with the cache on and token ids present).
  void CommitPrompt(size_t idx, const std::vector<int32_t>& prompt_tokens);
  // Ends session `idx`'s reservation. With `park_tokens` > 0 (a preempted
  // hybrid session) its cache rolls back to that many prompt tokens and
  // parks for a later `Admit`; otherwise its blocks return to the pool
  // (blocks the prefix cache pins stay resident as evictable entries).
  void Release(size_t idx, int64_t park_tokens = 0);

  // --- conditions and probes -----------------------------------------------

  // Shrinks (or restores) the usable-block cap to `scale` of the budget;
  // active sessions keep their blocks, new allocations are deferred.
  void ApplyKvSqueeze(double scale);
  // Tokens of `prompt` the prefix cache would serve now (0 with the cache
  // off). Pins nothing, touches no recency.
  int64_t ProbePrefixTokens(const std::vector<int32_t>& prompt) const;

  // Checks the block accounting: every block's pool refcount equals its
  // holders (session caches, parked caches, prefix-cache pins), the used
  // count equals the blocks with a nonzero refcount, and no session holds
  // more than its footprint. Call between rounds.
  Status CheckInvariants() const;

  // --- accounting ----------------------------------------------------------

  const KvBlockPool& pool() const { return pool_; }
  size_t parked_prompts() const { return parked_.size(); }
  // Prefix-cache blocks evicted so far (dropped parked prompts excluded).
  int64_t evicted_blocks() const { return prefix_.evicted_blocks(); }
  int64_t peak_used_blocks() const { return pool_.peak_used_blocks(); }

 private:
  struct Session {
    std::unique_ptr<model::KvCache> cache;
    int64_t footprint = 0;  // max blocks this session will ever hold
  };
  // A preempted hybrid session's committed prompt. `stamp` orders drops:
  // least recently parked first.
  struct ParkedPrompt {
    std::unique_ptr<model::KvCache> cache;
    int64_t stamp = 0;
  };

  // Blocks promised to sessions but not yet allocated. Free blocks behind
  // this line are spoken for, so admission only spends the rest.
  int64_t Headroom() const;
  // Rung 3. Returns false with nothing but `keep` parked.
  bool DropOneParked(size_t keep);

  const int64_t bt_;
  const int64_t total_blocks_;
  const bool use_prefix_;
  const int spec_window_;
  // Declaration order is release order in reverse: sessions and parked
  // caches go before the prefix cache, and all of them before the pool.
  KvBlockPool pool_;
  PrefixCache prefix_;
  std::map<size_t, ParkedPrompt> parked_;  // keyed by request index
  int64_t parked_stamp_ = 0;
  std::map<size_t, Session> sessions_;  // keyed by request index
};

}  // namespace heterollm::serve

#endif  // SRC_SERVE_KV_LEDGER_H_
