// Multi-session serving scheduler (continuous batching over one SoC).
//
// Admits N concurrent requests and interleaves their prefill and decode
// iterations over a single shared engine/Platform. The throughput win is
// the classic continuous-batching amortization, which the simulator prices
// faithfully: a decode iteration with B sessions runs its matmuls once at
// m = B (each weight streamed from DRAM once for the whole batch — decode
// is bandwidth-bound, paper §4.1.2), while attention and cache appends stay
// per-session. Serial session replay streams the full weight set once per
// token per user; continuous batching streams it once per iteration.
//
// KV memory is managed at *block* granularity, and every block decision
// goes through one KV ledger per window (src/serve/kv_ledger.h): it carves
// the budget into token blocks (src/serve/kv_pool.h) that sessions allocate
// as tokens are appended, shares committed prompt blocks through a prefix
// cache (src/serve/prefix_cache.h), reserves each admitted session's whole
// footprint, and keeps the parked prompts of preempted
// `IterationPolicy::kHybridChunked` sessions so re-admission resumes at
// the next prefill chunk (other policies drop the cache and re-prefill).
// Admission, the decode step and the prefill chunk relieve block pressure
// through the ledger's one ladder: evict cached prefixes, shed the
// speculative window (decode), drop parked prompts, preempt a session (the
// scheduler picks the victim), else wait for the next condition event. The
// scheduler keeps the requests, the active and waiting sessions, batch and
// victim selection, the rounds and the metrics.
//
// Every policy is served through one window (the ledger and the
// active/waiting session state live *in the scheduler*):
//
//   * `BeginWindow` / `Submit` / `StepRound` / `EndWindow` let an outer
//     driver (the cluster front-end, src/serve/cluster/; the task-DAG
//     release loop, src/serve/task_graph.h) feed requests as they are
//     routed and advance the replica one scheduling round at a time on its
//     own simulated clock.
//   * `Run(queue)` is that loop over a whole arrival trace: open a window,
//     submit every request, step until no work is left, close the window.
//
// The scheduler drives `ExecutionMode::kSimulate` engines only — batched
// decoding shares one forward pass across sessions with different cache
// contents, so only the timing path is meaningful.

#ifndef SRC_SERVE_ITERATION_SCHEDULER_H_
#define SRC_SERVE_ITERATION_SCHEDULER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/core/engine_base.h"
#include "src/serve/request_queue.h"
#include "src/serve/serving_metrics.h"

namespace heterollm::serve {

enum class IterationPolicy {
  // One conversation at a time, FIFO by arrival — the paper's serial
  // baseline: nothing is admitted while a session is active, so each
  // request prefills whole and decodes to completion before the next one
  // starts. The same rounds as kPrefillFirst with admission capped at one
  // active session.
  kSerial,
  // Continuous batching: admit (and prefill whole) every admissible waiting
  // request before the next decode iteration, then decode batched across
  // all active sessions — minimizes TTFT at some cost to decode cadence.
  kPrefillFirst,
  // Chunked prefill with stage-aware hybrid iterations: prompts prefill in
  // transactional chunks, and every scheduling round is one engine pass of
  // at most `prefill_chunk_tokens` rows — the batched decode/verify rows
  // first, then one prefill chunk in whatever remains (at least one token)
  // — so no decode round ever waits behind a full long prefill (the
  // paper's §5.5 starvation scenario). With both present the pass is one
  // Phase::kPrefill batch, chunk slot first and decode slots after it, so
  // the decode rows ride the chunk's weight stream and the logits rows
  // (the chunk's last row plus every decode row) form a contiguous suffix;
  // a full round is exactly one standard NPU graph. Chunk state persists
  // on the session: preemption parks the committed prompt blocks and
  // re-admission resumes at the next chunk instead of re-prefilling. TTFT
  // keeps its meaning (the last chunk's commit time); prefix-cache hits
  // skip whole chunks; speculative verify rows ride the decode part
  // unchanged.
  kHybridChunked,
};

enum class AdmissionPolicy {
  // Admit waiting requests in submission (arrival) order.
  kFifo,
  // Admit the highest-priority waiting request first (`Request::priority`,
  // FIFO among equals). The task layer (src/serve/task_graph.h) sets a
  // stage's priority to the number of completed stages in its task, so
  // critical-path stages of in-flight tasks admit ahead of fresh roots —
  // fewer half-finished tasks hold KV across the window, and task-level
  // tail latency drops under contention.
  kPriority,
};

struct SchedulerOptions {
  IterationPolicy iteration = IterationPolicy::kPrefillFirst;
  // Order in which waiting (arrived, unadmitted) requests are considered
  // for admission.
  AdmissionPolicy admission = AdmissionPolicy::kFifo;
  // Max sessions per batched decode iteration. The engine must have static
  // NPU decode graphs for every batch size up to this value — build it with
  // `BuildServingEngine` (src/serve/serving_engine.h) or `Replica::Create`
  // (src/serve/replica.h), which wire the decode widths for you.
  int max_decode_batch = 8;
  // KV-cache memory budget across all admitted sessions. The scheduler
  // carves it into `kv_block_tokens`-sized blocks; whatever the division
  // leaves over is unusable slack.
  Bytes kv_budget_bytes = 256 * kMiB;
  // Tokens per KV block. Smaller blocks track conversation footprints more
  // exactly and share finer prefixes; larger blocks cut bookkeeping.
  int64_t kv_block_tokens = 16;
  // Share committed prompt blocks across requests with identical prompt
  // heads (needs traces that carry `Request::prompt_tokens`).
  bool enable_prefix_cache = true;
  // Speculative decoding: draft tokens verified per decode iteration
  // (0 = off). Every selected session advances by up to window+1 tokens per
  // iteration through one batched verify pass; rejected drafts are rolled
  // back block-exactly. Admission reserves the window on top of each
  // session's footprint, and `BuildServingEngine` pre-compiles the wider
  // decode graphs (batch * (window+1)).
  int speculative_window = 0;
  // Per-draft acceptance probability of the simulated verifier (serving
  // drives simulate-mode engines, so there are no real logits to compare).
  double speculative_acceptance = 0.75;
  // Seeds the acceptance draws — runs are deterministic per seed.
  uint64_t speculative_seed = 17;
  // Chunked prefill (iteration == kHybridChunked; ignored otherwise): rows
  // of one hybrid round's engine pass, shared between the decode rows
  // (reserved first) and one prefill chunk (the remainder, floored at one
  // token so a saturated decode batch can never starve prefill into
  // livelock). Long prompts split into transactional chunks of at most
  // this size; `BuildServingEngine` pre-compiles this width as a standard
  // prefill size, so a full round is one standard NPU graph (ragged rounds
  // decompose/pad like any non-standard length).
  int64_t prefill_chunk_tokens = 256;

  // Field-level validity: max_decode_batch >= 1, kv_budget_bytes > 0,
  // kv_block_tokens >= 1, speculative_window >= 0, speculative_acceptance
  // in [0, 1], prefill_chunk_tokens >= 1. Whether the budget affords at
  // least one block's worth of bytes is checked downstream (it needs the
  // model config).
  Status Validate() const;
  // The SolverConfig pattern: a Status-returning factory so callers handle
  // bad options as errors instead of aborting inside the scheduler.
  static StatusOr<SchedulerOptions> Validated(SchedulerOptions options);
};

// One request finishing inside a serving window, surfaced through
// `DrainCompletions` so an outer driver (the task-DAG release loop) can
// react — release dependent stages — without scraping the window metrics.
struct CompletionEvent {
  int id = 0;            // Request::id
  MicroSeconds time = 0;  // completion instant on the replica clock
};

class IterationScheduler {
 public:
  // HCHECKs `options.Validate()`; use `SchedulerOptions::Validated` first
  // when the options come from user input.
  IterationScheduler(core::EngineBase* engine, const SchedulerOptions& options);
  ~IterationScheduler();

  IterationScheduler(const IterationScheduler&) = delete;
  IterationScheduler& operator=(const IterationScheduler&) = delete;

  // Serves every request in `queue` through one window (BeginWindow, Submit
  // each request, StepRound until no work is left, EndWindow) and returns
  // its metrics. Simulated time continues from the engine's current clock.
  // Must not be called while a window is open.
  ServingMetrics Run(const RequestQueue& queue);

  // --- the serving window ---------------------------------------------------
  // An outer driver may own the arrival trace and the routing decision; the
  // scheduler owns everything downstream: admission, KV blocks, prefix
  // cache, batched iterations. A window brackets one serving run for
  // power/utilization accounting.

  // Opens a window. Quiesces the platform and snapshots the power meter so
  // `EndWindow`'s energy and utilization cover this window alone.
  void BeginWindow();

  // Hands the scheduler one routed request. Requests must arrive in
  // non-decreasing `arrival` order — the router dispatches in arrival
  // order, and `TaskGraph::TakeReady` emits stage releases as a monotone
  // stream; the request queues until the replica clock reaches `arrival`
  // (a stage's `arrival` is its release time, see request_queue.h).
  void Submit(const Request& request);

  // One scheduling round: pump arrivals, admit (nothing while a session is
  // active under kSerial), then one engine pass — a batched decode/verify
  // iteration, under kHybridChunked fused with one prefill chunk — or an
  // idle/stall advance when nothing is runnable. Returns false (and does
  // nothing) when every submitted request has completed.
  bool StepRound();

  // Drains the platform and closes the window, returning its metrics.
  ServingMetrics EndWindow();

  // Requests that completed since the last drain (empty with no open
  // window), in completion order. The task-DAG drivers poll this after
  // every round to release dependent stages.
  std::vector<CompletionEvent> DrainCompletions();

  bool window_open() const { return cont_ != nullptr; }
  // True while some submitted request has not completed.
  bool has_work() const;
  // Sessions currently admitted (holding KV blocks).
  int active_sessions() const;
  // Submitted requests not currently admitted (arrived or not).
  int waiting_requests() const;
  // Tokens of `prompt` the window's prefix cache would serve right now
  // (0 with no open window or a disabled cache). Non-mutating — the
  // router's per-replica affinity estimate.
  int64_t ProbePrefixTokens(const std::vector<int32_t>& prompt) const;
  // Audits the open window's KV block accounting (`KvLedger::
  // CheckInvariants`, src/serve/kv_ledger.h); OK with no open window. Call
  // between rounds — tests and the stress suite do; serving rounds do not.
  Status CheckInvariants() const;
  // The replica-local simulated clock (engine host time).
  MicroSeconds now() const;
  // Idle-advances the replica to `t` (device cooling and scripted condition
  // events inside the gap are applied on time). No-op if `t` has passed.
  void AdvanceIdleTo(MicroSeconds t);

  const SchedulerOptions& options() const { return options_; }
  core::EngineBase* engine() const { return engine_; }

 private:
  struct Continuous;  // one serving window's state

  core::EngineBase* engine_;
  SchedulerOptions options_;
  std::unique_ptr<Continuous> cont_;  // the open window, if any
  ServingMetrics window_metrics_;     // metrics of the open window
  sim::PowerSnapshot power_start_;
  int replan_start_ = 0;
};

}  // namespace heterollm::serve

#endif  // SRC_SERVE_ITERATION_SCHEDULER_H_
