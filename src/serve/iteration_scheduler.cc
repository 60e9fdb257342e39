#include "src/serve/iteration_scheduler.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/model/kv_cache.h"
#include "src/serve/kv_ledger.h"

namespace heterollm::serve {

using model::KvCache;

Status SchedulerOptions::Validate() const {
  if (max_decode_batch < 1) {
    return InvalidArgumentError("max_decode_batch must be >= 1");
  }
  if (!(kv_budget_bytes > 0)) {
    return InvalidArgumentError("kv_budget_bytes must be positive");
  }
  if (kv_block_tokens < 1) {
    return InvalidArgumentError("kv_block_tokens must be >= 1");
  }
  if (speculative_window < 0) {
    return InvalidArgumentError("speculative_window must be >= 0");
  }
  if (speculative_acceptance < 0 || speculative_acceptance > 1.0) {
    return InvalidArgumentError("speculative_acceptance must be in [0, 1]");
  }
  if (prefill_chunk_tokens < 1) {
    return InvalidArgumentError("prefill_chunk_tokens must be >= 1");
  }
  return Status::Ok();
}

StatusOr<SchedulerOptions> SchedulerOptions::Validated(
    SchedulerOptions options) {
  HRETURN_IF_ERROR(options.Validate());
  return options;
}

namespace {

// Idle-advances `engine`'s platform to `t`. With dynamic conditions the
// simulator advances too, so units cool and scripted events falling inside
// the gap are applied on time. No-op if `t` has passed.
void IdleTo(core::EngineBase* engine, MicroSeconds t) {
  if (t <= engine->host_now()) {
    return;
  }
  sim::SocSimulator& soc = engine->platform()->soc();
  if (soc.dynamic_conditions()) {
    soc.AdvanceIdleTo(t);
  }
  engine->AdvanceHostTo(t);
}

}  // namespace

// One serving window: the state an outer driver holds open across
// `Submit`/`StepRound` calls. Every KV-block decision goes through `kv`.
struct IterationScheduler::Continuous {
  Continuous(core::EngineBase* engine, const SchedulerOptions& options,
             ServingMetrics* m)
      : engine(engine),
        options(options),
        m(m),
        cfg(engine->model_config()),
        soc(engine->platform()->soc()),
        spec_window(options.speculative_window),
        spec_rng(options.speculative_seed),
        kv(cfg, options),
        serial(options.iteration == IterationPolicy::kSerial),
        hybrid(options.iteration == IterationPolicy::kHybridChunked) {}

  core::EngineBase* engine;
  const SchedulerOptions& options;
  ServingMetrics* m;
  const model::ModelConfig& cfg;
  sim::SocSimulator& soc;
  // Speculative decoding: every decode iteration advances each selected
  // session by up to W+1 tokens through one batched verify pass; rejected
  // drafts roll back. Acceptance is drawn per draft from a seeded stream
  // (simulate-mode engines have no logits to compare), so runs stay
  // deterministic.
  const int spec_window;
  Rng spec_rng;

  // The KV blocks: pool, prefix cache, reservations, parked prompts and
  // the pressure ladder (src/serve/kv_ledger.h).
  KvLedger kv;
  // One conversation at a time (IterationPolicy::kSerial): admission stops
  // while a session is active.
  const bool serial;
  // Chunked-prefill mode (IterationPolicy::kHybridChunked): admission only
  // reserves the slot; the prompt then prefills chunk-by-chunk, each chunk
  // fused with a round's batched decode.
  const bool hybrid;

  struct Slot {
    size_t idx = 0;  // index into requests/metrics
    KvCache* cache = nullptr;  // owned by the ledger
    int decoded = 0;
    int64_t last_iter = -1;  // round-robin fairness key
  };

  // Grows as requests are submitted. Indices are stable, so they key slots
  // and metrics.
  std::vector<Request> requests;
  std::vector<Slot> active;
  std::deque<size_t> waiting;  // arrived, not (currently) admitted
  std::vector<bool> was_admitted;
  size_t next_arrival = 0;
  size_t completed = 0;
  int64_t iter = 0;
  double batch_accum = 0;
  // Completions since the last DrainCompletions(), in completion order —
  // the signal the task-DAG drivers turn into dependent-stage releases.
  std::vector<CompletionEvent> completions;

  bool HasWork() const { return completed < requests.size(); }

  void Add(const Request& r) {
    requests.push_back(r);
    RequestMetrics rm;
    rm.id = r.id;
    rm.arrival = r.arrival;
    rm.prompt_tokens = r.prompt_len;
    m->requests.push_back(rm);
    was_admitted.push_back(false);
  }

  // Effective decode batch: throttled units decode slower, so cap the batch
  // by the slowest unit's frequency factor (and the KV squeeze) to keep
  // per-iteration latency — and thus admission responsiveness — bounded.
  int EffectiveDecodeBatch() const {
    double scale = soc.kv_budget_scale();
    for (int u = 0; u < soc.unit_count(); ++u) {
      scale = std::min(scale, soc.UnitFrequencyFactor(u));
    }
    const int batch = static_cast<int>(
        std::floor(options.max_decode_batch * scale + 1e-9));
    return std::max(1, batch);
  }

  void AdmitArrivals() {
    const MicroSeconds now = engine->host_now();
    while (next_arrival < requests.size() &&
           requests[next_arrival].arrival <= now) {
      waiting.push_back(next_arrival++);
    }
  }

  // True while the session is still inside its prompt — only hybrid slots
  // ever are (the other policies prefill whole prompts at admission).
  bool Prefilling(const Slot& slot) const {
    return slot.cache->length() <
           static_cast<int64_t>(requests[slot.idx].prompt_len);
  }

  // Preempts `active[slot_pos]`. Under kHybridChunked chunk state persists
  // across preemption: decode progress rolls back to the prompt boundary
  // and the committed prompt blocks park, so re-admission resumes at the
  // next chunk instead of re-prefilling. Otherwise the cache is dropped
  // (blocks also pinned by the prefix cache stay resident).
  void Evict(size_t slot_pos) {
    const Slot& victim = active[slot_pos];
    RequestMetrics& vm = m->requests[victim.idx];
    ++vm.evictions;
    vm.decoded_tokens = 0;  // progress is discarded with the cache
    kv.Release(victim.idx,
               hybrid ? std::min<int64_t>(victim.cache->length(),
                                          requests[victim.idx].prompt_len)
                      : 0);
    waiting.push_back(victim.idx);
    active.erase(active.begin() + static_cast<ptrdiff_t>(slot_pos));
  }

  // The active session with the most remaining decode work (least sunk
  // progress relative to what it still needs); ties fall to the most
  // recent admission.
  size_t PickVictim() const {
    size_t victim = 0;
    int victim_remaining = -1;
    for (size_t s = 0; s < active.size(); ++s) {
      const int remaining =
          requests[active[s].idx].decode_len - active[s].decoded;
      if (remaining >= victim_remaining) {
        victim = s;
        victim_remaining = remaining;
      }
    }
    return victim;
  }

  // Position in `waiting` the admission policy considers next: the front
  // under kFifo (submission order); the highest-priority entry, FIFO among
  // equals, under kPriority.
  size_t PickWaiting() const {
    if (options.admission == AdmissionPolicy::kFifo) {
      return 0;
    }
    size_t best = 0;
    for (size_t w = 1; w < waiting.size(); ++w) {
      if (requests[waiting[w]].priority > requests[waiting[best]].priority) {
        best = w;
      }
    }
    return best;
  }

  // Admits the policy-chosen waiting request if the ledger can reserve its
  // whole remaining footprint; outside kHybridChunked it also prefills the
  // whole prompt. Returns true on admission. Under kSerial nothing is
  // admitted while a session is active.
  bool TryAdmit() {
    if (waiting.empty() || (serial && !active.empty())) {
      return false;
    }
    const size_t wpos = PickWaiting();
    const size_t idx = waiting[wpos];
    const Request& r = requests[idx];
    // Admission's preemption rung: at most one victim, only for a newcomer
    // (a request that has already held a slot queues instead — prevents
    // eviction ping-pong), and only when one eviction makes room.
    bool preempted = false;
    const KvLedger::Admission admitted = kv.Admit(idx, r, [&] {
      if (preempted || was_admitted[idx] || active.empty()) {
        return false;
      }
      const size_t victim = PickVictim();
      if (!kv.FitsWithout(active[victim].idx, kv.Footprint(r))) {
        return false;
      }
      Evict(victim);
      preempted = true;
      return true;
    });
    if (admitted.cache == nullptr) {
      return false;
    }

    waiting.erase(waiting.begin() + static_cast<ptrdiff_t>(wpos));
    was_admitted[idx] = true;
    m->requests[idx].admitted = engine->host_now();
    const int64_t committed = admitted.cache->length();
    m->prefilled_tokens += r.prompt_len - (admitted.resumed ? committed : 0);
    if (admitted.resumed) {
      m->chunk_resumed_tokens += committed;
    } else {
      m->prefix_hit_tokens += committed;
    }
    active.push_back(Slot{idx, admitted.cache});
    if (!hybrid) {
      // Whole-prompt prefill. Only the rows past the adopted prefix run (and
      // are priced); RoPE offsets and attention spans start at the cache
      // length. Under kHybridChunked admission is just the slot setup: the
      // prompt prefills as chunks inside the following rounds.
      engine->Execute(core::Batch::Deferred(
          core::Phase::kPrefill, {admitted.cache}, r.prompt_len - committed,
          cfg.hidden));
      CommitPrompt(active.size() - 1);
    }
    m->peak_active_sessions =
        std::max(m->peak_active_sessions, static_cast<int>(active.size()));
    return true;
  }

  // The prompt of `active[pos]` has fully committed — whole at admission or
  // by its last chunk. TTFT stamps here, the committed prompt becomes
  // prefix-cache currency, and a decode-less request completes (its blocks
  // return to the pool).
  void CommitPrompt(size_t pos) {
    const size_t idx = active[pos].idx;
    const Request& r = requests[idx];
    RequestMetrics& rm = m->requests[idx];
    rm.first_token = engine->host_now();
    kv.CommitPrompt(idx, r.prompt_tokens);
    if (r.decode_len == 0) {
      Complete(idx, rm.first_token);
      active.erase(active.begin() + static_cast<ptrdiff_t>(pos));
    }
  }

  // Request `idx` finished at `t`; its blocks return to the pool.
  void Complete(size_t idx, MicroSeconds t) {
    kv.Release(idx);
    m->requests[idx].completion = t;
    ++completed;
    completions.push_back({requests[idx].id, t});
  }

  // Round-robin fair selection: the max_decode_batch least recently
  // decoded sessions run this iteration (stable by arrival for ties).
  // Hybrid slots still inside their prompt cannot decode yet and are
  // skipped — their tokens flow through ReserveChunk instead.
  std::vector<size_t> SelectOrder() const {
    std::vector<size_t> order;
    order.reserve(active.size());
    for (size_t s = 0; s < active.size(); ++s) {
      if (!Prefilling(active[s])) {
        order.push_back(s);
      }
    }
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return active[a].last_iter < active[b].last_iter;
    });
    const size_t batch_cap = static_cast<size_t>(EffectiveDecodeBatch());
    if (order.size() > batch_cap) {
      order.resize(batch_cap);
    }
    return order;
  }

  // Decode/verify rows reserved for one engine pass: the selected sessions
  // (positions in `active`) and the rows each appends — 1, or the draft
  // window + 1 under speculation.
  struct DecodeRows {
    std::vector<size_t> slots;
    int64_t rows = 1;
  };

  // Reserves one batched decode (or speculative verify) step for the
  // round-robin-selected sessions, block-exactly, before the engine opens
  // the transactional steps. Admission reserved those blocks, so the
  // ledger's ladder only has work when a scripted KV squeeze shrank the
  // usable pool under the reservations. Comes back with no sessions —
  // nothing reserved — when none is decoding or no rung is left; the
  // caller then waits for the next condition event.
  DecodeRows ReserveDecode() {
    std::vector<size_t> order = SelectOrder();
    int64_t rows = spec_window > 0 ? spec_window + 1 : 1;
    KvLedger::Pressure pressure;
    // Allocate-on-append: each selected session appends `rows` tokens,
    // which may need fresh blocks (and a copy-on-write fork of a shared
    // tail — BlocksNeededFor counts it exactly as BeginStep consumes it).
    pressure.want = [&] {
      int64_t n = 0;
      for (size_t s : order) {
        n += active[s].cache->BlocksNeededFor(rows);
      }
      return n;
    };
    // Degrading to plain decode is cheaper than evicting a session.
    pressure.shed = [&] {
      if (rows == 1) {
        return false;
      }
      rows = 1;
      return true;
    };
    pressure.preempt = [&] {
      if (active.size() <= 1) {
        return false;
      }
      Evict(PickVictim());
      order = SelectOrder();
      return true;
    };
    if (!kv.Relieve(pressure)) {
      return {};
    }
    for (size_t s : order) {
      kv.ReserveStep(active[s].cache, rows);
    }
    return {std::move(order), rows};
  }

  // The decode epilogue once the engine pass has appended `d`'s rows:
  // speculative acceptance, rollback of rejected drafts, progress and
  // completions.
  void FinishDecode(const DecodeRows& d) {
    ++iter;
    ++m->decode_iterations;
    batch_accum += static_cast<double>(d.slots.size());
    const MicroSeconds now = engine->host_now();
    const int k = static_cast<int>(d.rows) - 1;  // drafts verified per session
    std::vector<size_t> done;
    for (size_t s : d.slots) {
      Slot& slot = active[s];
      slot.last_iter = iter;
      RequestMetrics& rm = m->requests[slot.idx];
      int emitted = 1;
      if (k > 0) {
        // Accept a geometric prefix of the k drafts, emit accepted + the
        // bonus token (capped at the request's remaining budget), and roll
        // the rejected suffix back. Rolled-back rows never count toward
        // decoded totals, TPOT intervals or token throughput — only the
        // draft/accepted counters see them.
        const int64_t len_before = slot.cache->length() - d.rows;
        int accepted = 0;
        while (accepted < k &&
               spec_rng.NextUnit() < options.speculative_acceptance) {
          ++accepted;
        }
        const int remaining = requests[slot.idx].decode_len - slot.decoded;
        emitted = std::min(1 + accepted, remaining);
        rm.draft_tokens += k;
        rm.accepted_tokens += emitted - 1;
        slot.cache->RollbackTo(len_before + emitted);
      }
      slot.decoded += emitted;
      rm.decoded_tokens = slot.decoded;
      if (slot.decoded >= requests[slot.idx].decode_len) {
        Complete(slot.idx, now);
        done.push_back(s);
      }
    }
    std::sort(done.begin(), done.end());
    for (auto it = done.rbegin(); it != done.rend(); ++it) {
      active.erase(active.begin() + static_cast<ptrdiff_t>(*it));
    }
  }

  // One prefill chunk reserved for an engine pass: the session (its request
  // index, which stays valid while the decode epilogue reshuffles
  // `active`), its cache and the prompt rows the chunk runs.
  struct ChunkRows {
    size_t idx = 0;
    KvCache* cache = nullptr;  // null: no chunk this round
    int64_t rows = 0;
  };

  // Reserves the next prefill chunk — at most `max_tokens` prompt tokens of
  // one prefilling session. Picks the session with the fewest prompt tokens
  // left (shortest-remaining-prefill: short prompts are not pinned behind a
  // long document, which is what keeps the TTFT mean competitive with
  // kPrefillFirst); ties fall to the earlier arrival, so the pick is
  // deterministic. Comes back without a cache when no session is
  // prefilling or the pool cannot supply the chunk's blocks (only a
  // scripted KV squeeze can — admission reserved the footprint).
  ChunkRows ReserveChunk(int64_t max_tokens) {
    size_t pick = active.size();
    int64_t pick_left = 0;
    for (size_t s = 0; s < active.size(); ++s) {
      if (!Prefilling(active[s])) {
        continue;
      }
      const int64_t left =
          requests[active[s].idx].prompt_len - active[s].cache->length();
      if (pick == active.size() || left < pick_left ||
          (left == pick_left && active[s].idx < active[pick].idx)) {
        pick = s;
        pick_left = left;
      }
    }
    if (pick == active.size()) {
      return {};
    }
    const Slot& slot = active[pick];
    const int64_t len = std::min(max_tokens, pick_left);
    KvLedger::Pressure pressure;
    pressure.want = [&] { return slot.cache->BlocksNeededFor(len); };
    pressure.keep = slot.idx;
    if (!kv.Relieve(pressure)) {
      return {};  // squeezed: wait for the next condition event
    }
    kv.ReserveStep(slot.cache, len);
    return {slot.idx, slot.cache, len};
  }

  // The chunk epilogue once the engine pass has appended `c`'s rows.
  void FinishChunk(const ChunkRows& c) {
    ++m->prefill_chunks;
    m->chunked_prefill_tokens += c.rows;
    if (c.cache->length() < requests[c.idx].prompt_len) {
      return;
    }
    const auto it = std::find_if(active.begin(), active.end(),
                                 [&](const Slot& s) { return s.idx == c.idx; });
    CommitPrompt(static_cast<size_t>(it - active.begin()));
  }

  // One round's engine pass: the batched decode (or speculative verify)
  // rows, plus one prefill chunk when a session is mid-prompt — only
  // kHybridChunked leaves sessions there; the other policies prefill whole
  // prompts at admission, so their rounds are the decode batch alone. The
  // decode rows are reserved first (decode cadence is what chunking
  // protects) and the chunk gets the rest of `prefill_chunk_tokens`,
  // floored at one token — a saturated decode batch slows prefill down but
  // can never starve it outright. With both present the chunk slot leads a
  // fused Phase::kPrefill batch (`core::Batch::Hybrid`) and the decode rows
  // ride its weight stream, so a decode round waits behind at most one
  // chunk of any prefill and every weight streams once per round. Returns
  // false — with nothing run — only when neither could progress (the pool
  // is pinned by a scripted squeeze); the caller waits for the next event.
  bool Iteration() {
    const DecodeRows decode = ReserveDecode();
    const ChunkRows chunk = ReserveChunk(std::max<int64_t>(
        1, options.prefill_chunk_tokens -
               static_cast<int64_t>(decode.slots.size()) * decode.rows));
    const bool decoding = !decode.slots.empty();
    std::vector<KvCache*> caches;
    caches.reserve(decode.slots.size());
    for (size_t s : decode.slots) {
      caches.push_back(active[s].cache);
    }
    if (chunk.cache == nullptr) {
      if (!decoding) {
        return false;
      }
      engine->Execute(core::Batch::Deferred(core::Phase::kDecode,
                                            caches, decode.rows,
                                            cfg.hidden));
    } else if (!decoding) {
      engine->Execute(core::Batch::Deferred(core::Phase::kPrefill,
                                            {chunk.cache}, chunk.rows,
                                            cfg.hidden));
    } else {
      engine->Execute(core::Batch::Hybrid(chunk.cache, chunk.rows, caches,
                                          decode.rows,
                                          cfg.hidden));
      ++m->hybrid_iterations;
    }
    // Decode epilogue first: the speculative acceptance draws keep the
    // order a decode-only round takes them in.
    if (decoding) {
      FinishDecode(decode);
    }
    if (chunk.cache != nullptr) {
      FinishChunk(chunk);
    }
    return true;
  }

  // Idles the platform until the next scripted condition event — a KV
  // squeeze may lift — instead of aborting; sessions keep their blocks and
  // their progress. `stall` is the abort message if no event is left.
  void WaitForConditionEvent(const char* stall) {
    const MicroSeconds next_event = soc.NextConditionEventTime();
    HCHECK_MSG(std::isfinite(next_event), stall);
    soc.AdvanceIdleTo(next_event);
    engine->AdvanceHostTo(soc.now());
  }

  // One scheduling round. Returns false (touching nothing) once every
  // request has completed.
  bool StepRound() {
    if (!HasWork()) {
      return false;
    }
    kv.ApplyKvSqueeze(soc.kv_budget_scale());
    AdmitArrivals();
    // Drain the admissible head of the queue: kPrefillFirst prefills each
    // admission whole, kHybridChunked admissions are cheap slot setups, and
    // kSerial stops at the first session that stays active.
    while (TryAdmit()) {
      AdmitArrivals();
    }
    if (!active.empty()) {
      if (!Iteration()) {
        // The pool is pinned under this batch's next block with no
        // recovery move left — only a scripted KV squeeze can do that
        // (admission reserved every session's whole footprint).
        WaitForConditionEvent(
            "KV pool exhausted mid-decode with nothing to evict and no "
            "further condition events");
      }
    } else if (!waiting.empty()) {
      // Nothing is running and the head request still failed admission,
      // though admission may evict every cached prefix and parked prompt
      // and its footprint was HCHECKed against the whole budget — only a
      // scripted KV squeeze can do that.
      HCHECK_MSG(soc.kv_budget_scale() < 1.0,
                 "serving stalled: waiting requests but nothing admissible");
      WaitForConditionEvent(
          "serving stalled: KV budget squeezed below the head request with "
          "no further condition events");
    } else if (next_arrival < requests.size()) {
      IdleTo(engine, requests[next_arrival].arrival);
    }
    return true;
  }
};

IterationScheduler::IterationScheduler(core::EngineBase* engine,
                                       const SchedulerOptions& options)
    : engine_(engine), options_(options) {
  HCHECK(engine != nullptr);
  const Status valid = options.Validate();
  HCHECK_MSG(valid.ok(), valid.message().c_str());
}

IterationScheduler::~IterationScheduler() = default;

ServingMetrics IterationScheduler::Run(const RequestQueue& queue) {
  BeginWindow();
  for (const Request& r : queue.requests()) {
    Submit(r);
  }
  while (StepRound()) {
  }
  return EndWindow();
}

void IterationScheduler::BeginWindow() {
  HCHECK_MSG(cont_ == nullptr, "BeginWindow() with a window already open");
  // Quiesce the device queues so the power snapshot marks a clean window
  // boundary (a no-op when the platform is already idle).
  sim::SocSimulator& soc = engine_->platform()->soc();
  soc.DrainAll();
  engine_->AdvanceHostTo(soc.now());
  window_metrics_.window_start = engine_->host_now();
  power_start_ = soc.power().Snapshot();
  replan_start_ = engine_->replan_events();
  cont_ = std::make_unique<Continuous>(engine_, options_, &window_metrics_);
}

void IterationScheduler::Submit(const Request& request) {
  HCHECK_MSG(cont_ != nullptr, "Submit() without an open window");
  HCHECK_MSG(cont_->requests.empty() ||
                 request.arrival >= cont_->requests.back().arrival,
             "Submit() requires non-decreasing arrivals (a stage's arrival "
             "is its release time; route DAG stages through "
             "TaskGraph::TakeReady, which emits a monotone stream)");
  cont_->Add(request);
}

bool IterationScheduler::StepRound() {
  HCHECK_MSG(cont_ != nullptr, "StepRound() without an open window");
  return cont_->StepRound();
}

ServingMetrics IterationScheduler::EndWindow() {
  HCHECK_MSG(cont_ != nullptr, "EndWindow() without an open window");
  HCHECK_MSG(!cont_->HasWork(),
             "EndWindow() with unfinished requests — step the window dry "
             "first");
  ServingMetrics& m = window_metrics_;
  if (m.decode_iterations > 0) {
    m.avg_decode_batch = cont_->batch_accum / m.decode_iterations;
  }
  m.blocks_evicted = cont_->kv.evicted_blocks();
  m.kv_blocks_peak = cont_->kv.peak_used_blocks();
  cont_.reset();  // the ledger releases every block pre-drain
  // Let straggling device queues drain so utilization covers real work only.
  sim::SocSimulator& soc = engine_->platform()->soc();
  soc.DrainAll();
  engine_->AdvanceHostTo(soc.now());
  m.window_end = engine_->host_now();
  m.replan_events = engine_->replan_events() - replan_start_;
  m.energy = soc.power().TotalEnergySince(power_start_, m.makespan());
  m.avg_power_watts =
      soc.power().AveragePowerWattsSince(power_start_, m.makespan());
  m.report = core::ExecutionReport::Build(*engine_->platform(),
                                          m.window_start, m.window_end);
  for (const RequestMetrics& r : m.requests) {
    m.evictions += r.evictions;
  }
  ServingMetrics out = std::move(window_metrics_);
  window_metrics_ = ServingMetrics();
  return out;
}

std::vector<CompletionEvent> IterationScheduler::DrainCompletions() {
  if (cont_ == nullptr) {
    return {};
  }
  std::vector<CompletionEvent> out = std::move(cont_->completions);
  cont_->completions.clear();
  return out;
}

bool IterationScheduler::has_work() const {
  return cont_ != nullptr && cont_->HasWork();
}

int IterationScheduler::active_sessions() const {
  return cont_ == nullptr ? 0 : static_cast<int>(cont_->active.size());
}

int IterationScheduler::waiting_requests() const {
  if (cont_ == nullptr) {
    return 0;
  }
  return static_cast<int>(cont_->requests.size() - cont_->completed -
                          cont_->active.size());
}

int64_t IterationScheduler::ProbePrefixTokens(
    const std::vector<int32_t>& prompt) const {
  return cont_ == nullptr ? 0 : cont_->kv.ProbePrefixTokens(prompt);
}

Status IterationScheduler::CheckInvariants() const {
  return cont_ == nullptr ? Status::Ok() : cont_->kv.CheckInvariants();
}

MicroSeconds IterationScheduler::now() const { return engine_->host_now(); }

void IterationScheduler::AdvanceIdleTo(MicroSeconds t) { IdleTo(engine_, t); }

}  // namespace heterollm::serve
