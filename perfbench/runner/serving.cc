// Serving workloads: agentic_throttled and mixed_chunked_spec.
//
// Both drive one `serve::Replica` through its incremental window
// (BeginWindow / Submit / StepRound / DrainCompletions / EndWindow); the
// agentic one also pumps a `serve::TaskGraph` (TakeReady / OnCompleted)
// exactly like `serve::ServeTasks`. Load is open-loop in simulated time:
// arrivals and stage releases are fixed by the seed. On the host each
// pass serves the whole batch once, as fast as it can.

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "runner/report.h"
#include "runner/stats.h"
#include "runner/trace.h"
#include "runner/workloads.h"
#include "src/common/rng.h"
#include "src/core/engine_registry.h"
#include "src/model/kv_cache.h"
#include "src/model/model_config.h"
#include "src/model/weights.h"
#include "src/serve/iteration_scheduler.h"
#include "src/serve/replica.h"
#include "src/serve/request_queue.h"
#include "src/serve/serving_metrics.h"
#include "src/serve/task_graph.h"
#include "src/sim/thermal_model.h"
#include "src/workload/task_trace.h"

namespace perfbench {
namespace {

using heterollm::MicroSeconds;
using heterollm::Rng;
using heterollm::model::ExecutionMode;
using heterollm::model::KvCache;
using heterollm::model::ModelConfig;
using heterollm::model::ModelWeights;
using heterollm::serve::CompletionEvent;
using heterollm::serve::Replica;
using heterollm::serve::ReplicaOptions;
using heterollm::serve::Request;
using heterollm::serve::RequestMetrics;
using heterollm::serve::ServingMetrics;
using heterollm::serve::TaskGraph;
using heterollm::workload::TaskSpec;

constexpr const char* kEngine = "Hetero-tensor";

// ---------------------------------------------------------------------------
// Workload definitions. Everything a pass serves is generated here from the
// seed; `rate_factor` scales the arrival rate (1 = the workload's own rate)
// for the SLO sweep, leaving every length and token unchanged.

struct Shape {
  bool agentic = false;
  // agentic_throttled: task arrivals (mean gap) and per-task shapes.
  int tasks = 0;
  MicroSeconds task_gap_us = 0;
  // mixed_chunked_spec: request arrivals.
  int requests = 0;
  MicroSeconds request_gap_us = 0;
  // SLO limits on simulated TTFT (stage TTFT on agentic) and TPOT.
  double slo_ttft_ms = 0;
  double slo_tpot_ms = 0;
  // Arrival-rate multipliers of the SLO sweep; 1 is the workload's own.
  std::vector<double> slo_rate_factors;
};

Shape ShapeFor(const std::string& workload) {
  Shape s;
  if (workload == "agentic_throttled") {
    s.agentic = true;
    s.tasks = 100;
    s.task_gap_us = 3e6;
    s.slo_ttft_ms = 4000;
    s.slo_tpot_ms = 400;
    s.slo_rate_factors = {1.0};
  } else {
    s.requests = 600;
    s.request_gap_us = 5e5;
    s.slo_ttft_ms = 2000;
    s.slo_tpot_ms = 100;
    s.slo_rate_factors = {1.0, 1.25, 1.75};
  }
  return s;
}

struct Inputs {
  std::vector<TaskSpec> tasks;    // agentic
  std::vector<Request> requests;  // mixed
  int64_t items = 0;              // requests, or stages on agentic
  int64_t prompt_tokens = 0;
  int64_t decode_tokens = 0;
  MicroSeconds last_arrival = 0;
};

heterollm::workload::AgenticTraceOptions AgenticOptions(const Shape& s) {
  heterollm::workload::AgenticTraceOptions o;
  o.tasks = s.tasks;
  o.mean_interarrival_us = s.task_gap_us;  // replaced, see JitteredArrivals
  // Lighter per-task shapes than bench_agentic_tasks, so 100 tasks (enough
  // for a p90 with ten samples beyond it) fit a short run.
  o.turns_min = 2;
  o.turns_max = 2;
  o.system_prompt_len = 64;
  o.query_min = 16;
  o.query_max = 32;
  o.context_min = 96;
  o.context_max = 192;
  o.decode_min = 6;
  o.decode_max = 12;
  o.tool_result_len = 32;
  o.resume_decode = 6;
  // Every turn ends in a tool call, so each task has the same eight-stage
  // shape and the stage mix does not vary from seed to seed.
  o.tool_call_fraction = 1.0;
  return o;
}

// Open-loop arrival times at mean gap `mean_gap_us`, in bursts of `burst`:
// bursts are spaced burst x the mean gap apart, each gap uniform in
// [0.9, 1.1] x its mean, and the members of a burst follow the first
// within half a mean gap. They replace the generators' exponential gaps:
// bursts make queues form in every trace, while the regular spacing keeps
// one seed's latency tails close to another's. Every length and token the
// generators drew is kept.
std::vector<MicroSeconds> JitteredArrivals(uint64_t seed, size_t n,
                                           MicroSeconds mean_gap_us,
                                           size_t burst) {
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<MicroSeconds> out;
  MicroSeconds t = 0;
  while (out.size() < n) {
    t += static_cast<double>(burst) * mean_gap_us * rng.NextUniform(0.9, 1.1);
    MicroSeconds member = t;
    for (size_t i = 0; i < burst && out.size() < n; ++i) {
      out.push_back(member);
      member += 0.5 * mean_gap_us * rng.NextUnit();
    }
  }
  return out;
}

// The workload's inputs; `limit` > 0 keeps only the first `limit` tasks or
// requests (the different-seed check serves such a prefix).
Inputs MakeInputs(const Shape& s, uint64_t seed, double rate_factor,
                  size_t limit) {
  Inputs in;
  Rng rng(seed);
  if (s.agentic) {
    in.tasks = heterollm::workload::SyntheticAgenticTrace(
        rng, AgenticOptions(s));
    const std::vector<MicroSeconds> arrivals = JitteredArrivals(
        seed, in.tasks.size(), s.task_gap_us / rate_factor, /*burst=*/2);
    for (size_t i = 0; i < in.tasks.size(); ++i) {
      in.tasks[i].arrival = arrivals[i];
    }
    if (limit > 0 && limit < in.tasks.size()) in.tasks.resize(limit);
    for (const TaskSpec& t : in.tasks) {
      in.last_arrival = std::max(in.last_arrival, t.arrival);
      for (const auto& stage : t.stages) {
        ++in.items;
        in.prompt_tokens += stage.prompt_len;
        in.decode_tokens += stage.decode_len;
      }
    }
  } else {
    // Exactly a quarter are 768-1024-token documents with 8 output tokens,
    // every fourth request; the rest are short chat turns. Lengths only, so
    // the prefix cache stays inert.
    const int docs = s.requests / 4;
    const std::vector<Request> long_docs =
        heterollm::serve::RequestQueue::SyntheticMixed(
            rng, docs, s.request_gap_us, /*long_fraction=*/1.0,
            /*min_long_prompt=*/768, /*max_long_prompt=*/1024,
            /*long_decode=*/8, /*min_prompt=*/32, /*max_prompt=*/96,
            /*min_decode=*/24, /*max_decode=*/48)
            .requests();
    const std::vector<Request> chats =
        heterollm::serve::RequestQueue::SyntheticMixed(
            rng, s.requests - docs, s.request_gap_us, /*long_fraction=*/0.0,
            /*min_long_prompt=*/768, /*max_long_prompt=*/1024,
            /*long_decode=*/8, /*min_prompt=*/32, /*max_prompt=*/96,
            /*min_decode=*/24, /*max_decode=*/48)
            .requests();
    const std::vector<MicroSeconds> arrivals =
        JitteredArrivals(seed, static_cast<size_t>(s.requests),
                         s.request_gap_us / rate_factor, /*burst=*/1);
    size_t next_doc = 0, next_chat = 0;
    for (int i = 0; i < s.requests; ++i) {
      const bool doc = i % 4 == 3;
      const Request& r = doc ? long_docs[next_doc++] : chats[next_chat++];
      in.requests.push_back(Request::Chat(i, arrivals[static_cast<size_t>(i)],
                                          r.prompt_len, r.decode_len));
    }
    if (limit > 0 && limit < in.requests.size()) in.requests.resize(limit);
    for (const Request& r : in.requests) {
      ++in.items;
      in.prompt_tokens += r.prompt_len;
      in.decode_tokens += r.decode_len;
      in.last_arrival = std::max(in.last_arrival, r.arrival);
    }
  }
  return in;
}

// NPU capped at 0.4x from 100 ms on, plus a foreground app streaming DRAM
// in bursts at 40% duty, for the whole window.
std::vector<heterollm::sim::ConditionEvent> ThrottleConditions(
    MicroSeconds horizon_us) {
  std::vector<heterollm::sim::ConditionEvent> trace =
      heterollm::workload::BackgroundLoadTrace(
          /*period_us=*/1e6, /*busy_us=*/4e5,
          /*bandwidth_bytes_per_us=*/12e3, horizon_us);
  heterollm::sim::ConditionEvent cap;
  cap.time = 1e5;
  cap.unit = "npu";
  cap.frequency_cap = 0.4;
  trace.push_back(cap);
  std::stable_sort(trace.begin(), trace.end(),
                   [](const auto& a, const auto& b) {
                     return a.time < b.time;
                   });
  return trace;
}

ReplicaOptions OptionsFor(const Shape& s, const ModelConfig& cfg,
                          const Inputs& in) {
  ReplicaOptions o;
  o.platform = heterollm::core::PlatformOptionsFor(kEngine);
  o.engine = kEngine;
  if (s.agentic) {
    // bench_agentic_tasks' stage_aware configuration.
    o.platform.thermal = heterollm::sim::ThermalConfig::MobileSustained();
    // Conditions run well past the last arrival, so the tail of the window
    // is served under the same load as the rest.
    o.platform.conditions = ThrottleConditions(in.last_arrival + 300e6);
    o.scheduler.max_decode_batch = 4;
    o.scheduler.admission = heterollm::serve::AdmissionPolicy::kPriority;
    o.scheduler.enable_prefix_cache = true;
    o.scheduler.kv_budget_bytes = KvCache::BytesForTokens(cfg, 2560);
  } else {
    o.scheduler.iteration = heterollm::serve::IterationPolicy::kHybridChunked;
    o.scheduler.prefill_chunk_tokens = 128;
    o.scheduler.speculative_window = 2;
    o.scheduler.max_decode_batch = 8;
    o.scheduler.kv_budget_bytes = 512 * heterollm::kMiB;
  }
  return o;
}

// ---------------------------------------------------------------------------
// Set-up: inputs, weights and replica, timed separately.

struct Setup {
  Inputs inputs;
  std::unique_ptr<ModelWeights> weights;
  std::unique_ptr<Replica> replica;
  double gen_s = 0;
  double weights_s = 0;
  double replica_s = 0;
  double weights_mb = 0;  // RSS delta across ModelWeights::Create
  int compiles_setup = 0;
  double total_s() const { return gen_s + weights_s + replica_s; }
};

Setup MakeSetup(const Shape& s, uint64_t seed, double rate_factor,
                Tracer& tracer, size_t limit = 0) {
  Setup st;
  const ModelConfig cfg = ModelConfig::InternLM1_8B();
  double t0 = HostSeconds();
  {
    SpanScope span(tracer, "workload", "generate");
    st.inputs = MakeInputs(s, seed, rate_factor, limit);
  }
  double t1 = HostSeconds();
  st.gen_s = t1 - t0;
  const double rss0 = CurrentRssMb();
  {
    SpanScope span(tracer, "model", "ModelWeights::Create");
    st.weights = std::make_unique<ModelWeights>(
        ModelWeights::Create(cfg, ExecutionMode::kSimulate));
  }
  st.weights_mb = CurrentRssMb() - rss0;
  t0 = HostSeconds();
  st.weights_s = t0 - t1;
  {
    SpanScope span(tracer, "serve", "Replica::Create");
    auto replica =
        Replica::Create(OptionsFor(s, cfg, st.inputs), st.weights.get());
    HCHECK_MSG(replica.ok(), replica.status().message().c_str());
    st.replica = std::move(replica).value();
  }
  st.replica_s = HostSeconds() - t0;
  st.compiles_setup = st.replica->engine().schedule_compiles();
  return st;
}

// ---------------------------------------------------------------------------
// One pass: serve the whole batch once through the incremental window.

struct Pass {
  ServingMetrics m;
  double serve_s = 0;            // BeginWindow .. EndWindow, host seconds
  std::vector<double> round_s;   // host seconds per StepRound
  // (simulated us, host s since BeginWindow) after every clock move, for
  // mapping simulated instants onto the host clock.
  std::vector<double> clock_sim_us;
  std::vector<double> clock_host_s;
  std::map<int, int> completions;  // request id -> times completed
  int64_t submitted = 0;
  int stages_released = 0;
  int compiles_run = 0;
};

void LogClock(Pass& p, const Replica& replica, double host_begin) {
  p.clock_sim_us.push_back(replica.now());
  p.clock_host_s.push_back(HostSeconds() - host_begin);
}

void StepAndDrain(Replica& replica, Pass& p, double host_begin,
                  Tracer& tracer, TaskGraph* graph) {
  const double t0 = HostSeconds();
  {
    SpanScope span(tracer, "serve", "StepRound",
                   static_cast<int64_t>(p.round_s.size()));
    replica.StepRound();
  }
  p.round_s.push_back(HostSeconds() - t0);
  LogClock(p, replica, host_begin);
  std::vector<CompletionEvent> done;
  {
    SpanScope span(tracer, "serve", "DrainCompletions");
    done = replica.DrainCompletions();
  }
  for (const CompletionEvent& c : done) {
    ++p.completions[c.id];
    if (graph != nullptr) {
      SpanScope span(tracer, "task", "OnCompleted", c.id);
      graph->OnCompleted(c.id, c.time);
    }
  }
}

void SubmitAll(Replica& replica, const std::vector<Request>& requests,
               Pass& p, Tracer& tracer) {
  for (const Request& r : requests) {
    SpanScope span(tracer, "serve", "Submit", r.id);
    replica.Submit(r);
    ++p.submitted;
  }
}

// Flat trace: every request submitted up front (queued until the replica
// clock reaches its arrival), stepped dry — what Replica::Serve does.
Pass ServeFlat(Setup& st, Tracer& tracer) {
  Replica& replica = *st.replica;
  Pass p;
  const double begin = HostSeconds();
  {
    SpanScope span(tracer, "serve", "BeginWindow");
    replica.BeginWindow();
  }
  LogClock(p, replica, begin);
  SubmitAll(replica, st.inputs.requests, p, tracer);
  while (replica.has_work()) {
    StepAndDrain(replica, p, begin, tracer, nullptr);
  }
  {
    SpanScope span(tracer, "serve", "EndWindow");
    p.m = replica.EndWindow();
  }
  p.serve_s = HostSeconds() - begin;
  return p;
}

// Task DAGs: the serve::ServeTasks release loop, step for step.
Pass ServeDag(Setup& st, Tracer& tracer) {
  Replica& replica = *st.replica;
  Pass p;
  const double begin = HostSeconds();
  std::unique_ptr<TaskGraph> graph;
  {
    SpanScope span(tracer, "task", "TaskGraph");
    graph = std::make_unique<TaskGraph>(st.inputs.tasks);
  }
  {
    SpanScope span(tracer, "serve", "BeginWindow");
    replica.BeginWindow();
  }
  LogClock(p, replica, begin);
  while (!graph->AllDone()) {
    std::vector<Request> ready;
    {
      SpanScope span(tracer, "task", "TakeReady");
      ready = graph->TakeReady(replica.now());
    }
    SubmitAll(replica, ready, p, tracer);
    if (replica.has_work()) {
      StepAndDrain(replica, p, begin, tracer, graph.get());
      continue;
    }
    const MicroSeconds next = graph->NextReleaseTime();
    HCHECK_MSG(next < std::numeric_limits<MicroSeconds>::max(),
               "task graph deadlocked: replica dry, no releasable stage");
    {
      SpanScope span(tracer, "serve", "AdvanceIdleTo");
      replica.AdvanceIdleTo(next);
    }
    LogClock(p, replica, begin);
  }
  {
    SpanScope span(tracer, "serve", "EndWindow");
    p.m = replica.EndWindow();
  }
  {
    SpanScope span(tracer, "task", "BuildTaskMetrics");
    p.m.tasks = graph->BuildTaskMetrics(p.m.requests);
  }
  p.serve_s = HostSeconds() - begin;
  p.stages_released = graph->released_stages();
  return p;
}

Pass ServeOnce(const Shape& s, Setup& st, Tracer& tracer) {
  Pass p = s.agentic ? ServeDag(st, tracer) : ServeFlat(st, tracer);
  std::printf("pass: host %.4f s, rounds %zu, traced %d\n", p.serve_s,
              p.round_s.size(), tracer.enabled() ? 1 : 0);
  p.compiles_run = st.replica->engine().schedule_compiles() - st.compiles_setup;
  return p;
}

// The same window through the library's own batch loop (Replica::Serve or
// serve::ServeTasks): the reference the hand-driven loop must reproduce.
ServingMetrics ServeReference(const Shape& s, Setup& st) {
  if (s.agentic) {
    TaskGraph graph(st.inputs.tasks);
    return heterollm::serve::ServeTasks(*st.replica, graph);
  }
  return st.replica->Serve(heterollm::serve::RequestQueue(st.inputs.requests));
}

// ---------------------------------------------------------------------------
// Derived numbers.

// Every simulated output of a window, serialized at full precision: two
// windows ran the same simulated program iff these strings are equal.
std::string Fingerprint(const ServingMetrics& m) {
  std::string out = m.ToJson();
  char buf[256];
  std::snprintf(buf, sizeof(buf), "|%.17g|%.17g|%.17g|%d|%d", m.window_start,
                m.window_end, m.energy, m.replan_events, m.evictions);
  out += buf;
  for (const RequestMetrics& r : m.requests) {
    std::snprintf(buf, sizeof(buf), "|%d:%.17g:%.17g:%.17g:%.17g", r.id,
                  r.arrival, r.admitted, r.first_token, r.completion);
    out += buf;
  }
  for (const auto& u : m.report.units) {
    std::snprintf(buf, sizeof(buf), "|%s:%.17g:%d:%.17g:%.17g",
                  u.unit.c_str(), u.busy, u.kernels, u.bytes, u.flops);
    out += buf;
  }
  return out;
}

// Host seconds (since BeginWindow) at which the simulated clock reached
// `t`, interpolated within the step that crossed it.
double HostAt(const Pass& p, MicroSeconds t) {
  const auto& sim = p.clock_sim_us;
  const auto it = std::lower_bound(sim.begin(), sim.end(), t);
  if (it == sim.begin()) {
    return p.clock_host_s.front();
  }
  if (it == sim.end()) {
    return p.clock_host_s.back();
  }
  const size_t i = static_cast<size_t>(it - sim.begin());
  const double span = sim[i] - sim[i - 1];
  const double frac = span > 0 ? (t - sim[i - 1]) / span : 1.0;
  return p.clock_host_s[i - 1] +
         frac * (p.clock_host_s[i] - p.clock_host_s[i - 1]);
}

struct HostStats {
  double ttft_ms = 0;  // median over requests
  double tpot_p50_ms = 0;
  double tpot_p90_ms = 0;
  int64_t ttft_n = 0;
  int64_t tpot_n = 0;
};

// Host-clock latencies: the host time the simulator spent between a
// request's arrival and its first token, and per gap between its tokens.
HostStats HostStatsOf(const Pass& p) {
  HostStats h;
  std::vector<double> ttft, tpot;
  for (const RequestMetrics& r : p.m.requests) {
    const double first = HostAt(p, r.first_token);
    ttft.push_back((first - HostAt(p, r.arrival)) * 1e3);
    if (r.decoded_tokens > 1) {
      tpot.push_back((HostAt(p, r.completion) - first) * 1e3 /
                     (r.decoded_tokens - 1));
    }
  }
  h.ttft_n = static_cast<int64_t>(ttft.size());
  h.tpot_n = static_cast<int64_t>(tpot.size());
  h.ttft_ms = Median(ttft);
  h.tpot_p50_ms = Percentile(tpot, 50);
  h.tpot_p90_ms = Percentile(std::move(tpot), 90);
  return h;
}

std::vector<double> TtftMs(const ServingMetrics& m) {
  std::vector<double> v;
  for (const RequestMetrics& r : m.requests) v.push_back(r.ttft() / 1e3);
  return v;
}

std::vector<double> TpotMs(const ServingMetrics& m) {
  std::vector<double> v;
  for (const RequestMetrics& r : m.requests) {
    if (r.decoded_tokens > 1) v.push_back(r.tpot() / 1e3);
  }
  return v;
}

// End-to-end latency of a task (agentic) or request (mixed), in ms.
std::vector<double> TaskMs(const ServingMetrics& m) {
  std::vector<double> v;
  if (!m.tasks.empty()) {
    for (const auto& t : m.tasks) v.push_back(t.e2e_latency() / 1e3);
  } else {
    for (const RequestMetrics& r : m.requests) {
      v.push_back(r.e2e_latency() / 1e3);
    }
  }
  return v;
}

// Saturation guard: median TTFT of the first and the last quarter of
// arrivals (requests, or stage releases on agentic).
std::pair<double, double> QuarterTtftMs(const ServingMetrics& m) {
  std::vector<const RequestMetrics*> rows;
  for (const RequestMetrics& r : m.requests) rows.push_back(&r);
  std::stable_sort(rows.begin(), rows.end(),
                   [](const RequestMetrics* a, const RequestMetrics* b) {
                     return a->arrival < b->arrival;
                   });
  const size_t q = rows.size() / 4;
  std::vector<double> first, last;
  for (size_t i = 0; i < q; ++i) {
    first.push_back(rows[i]->ttft() / 1e3);
    last.push_back(rows[rows.size() - 1 - i]->ttft() / 1e3);
  }
  return {Median(first), Median(last)};
}

bool GuardHolds(const ServingMetrics& m) {
  const auto [first, last] = QuarterTtftMs(m);
  return last <= 2.0 * first;
}

// Share of requests meeting both SLO limits (a request with one decoded
// token has no TPOT and is judged on TTFT alone).
double SloAttainment(const Shape& s, const ServingMetrics& m) {
  int64_t met = 0;
  for (const RequestMetrics& r : m.requests) {
    const bool ttft_ok = r.completion > 0 && r.ttft() / 1e3 <= s.slo_ttft_ms;
    const bool tpot_ok =
        r.decoded_tokens <= 1 || r.tpot() / 1e3 <= s.slo_tpot_ms;
    met += ttft_ok && tpot_ok ? 1 : 0;
  }
  return m.requests.empty()
             ? 0
             : static_cast<double>(met) /
                   static_cast<double>(m.requests.size());
}

// Realized arrival rate of a window's trace, requests per simulated second.
double RealizedRate(const ServingMetrics& m) {
  MicroSeconds lo = std::numeric_limits<MicroSeconds>::max(), hi = 0;
  for (const RequestMetrics& r : m.requests) {
    lo = std::min(lo, r.arrival);
    hi = std::max(hi, r.arrival);
  }
  return hi > lo ? static_cast<double>(m.requests.size() - 1) /
                       ((hi - lo) / 1e6)
                 : 0;
}

// Correctness of one pass against its inputs: every request or stage
// completes exactly once with exactly the decode length it asked for, and
// every task finishes.
int64_t CheckPass(const Shape& s, const Inputs& in, const Pass& p,
                  Sheet& sheet, const char* label) {
  int64_t bad = 0;
  std::map<int, int> expected_decode;
  if (s.agentic) {
    // TaskGraph numbers stages globally in (task, stage) order.
    int id = 0;
    for (const TaskSpec& t : in.tasks) {
      for (const auto& stage : t.stages) {
        expected_decode[id++] = stage.decode_len;
      }
    }
  } else {
    for (const Request& r : in.requests) expected_decode[r.id] = r.decode_len;
  }
  for (const RequestMetrics& r : p.m.requests) {
    const auto c = p.completions.find(r.id);
    const auto e = expected_decode.find(r.id);
    const bool ok = c != p.completions.end() && c->second == 1 &&
                    e != expected_decode.end() &&
                    r.decoded_tokens == e->second && r.completion > 0;
    bad += ok ? 0 : 1;
  }
  bad += static_cast<int64_t>(expected_decode.size()) -
         static_cast<int64_t>(p.m.requests.size());
  const std::string where = std::string(" (") + label + ")";
  sheet.Check(p.submitted == in.items,
              "every request or stage was submitted" + where);
  sheet.Check(bad == 0,
              "every request completes exactly once with its decode length" +
                  where);
  sheet.Check(p.completions.size() == static_cast<size_t>(in.items),
              "completion count equals attempted" + where);
  if (s.agentic) {
    bool all_done = p.m.tasks.size() == in.tasks.size();
    for (const auto& t : p.m.tasks) all_done = all_done && t.completion > 0;
    sheet.Check(all_done, "every task finishes" + where);
    sheet.Check(p.stages_released == in.items,
                "every stage is released" + where);
  }
  return bad;
}

void SetLatencyTail(Sheet& sheet, const std::string& name,
                    std::vector<double> values) {
  const int64_t n = static_cast<int64_t>(values.size());
  sheet.Set(name + "_p50_ms", Percentile(values, 50), "ms", n);
  sheet.Set(name + "_p90_ms", Percentile(std::move(values), 90), "ms", n);
}

// ---------------------------------------------------------------------------
// Reporting.

// Host figures of the untraced passes; every run reports them.
void ReportHost(const std::vector<Pass>& passes,
                const std::vector<double>& setup_s, double peak_rss_mb,
                Sheet& sheet) {
  std::vector<double> serve_s, ttft, tpot50, tpot90;
  int64_t ttft_n = 0, tpot_n = 0;
  for (const Pass& p : passes) {
    const HostStats h = HostStatsOf(p);
    serve_s.push_back(p.serve_s);
    ttft.push_back(h.ttft_ms);
    tpot50.push_back(h.tpot_p50_ms);
    tpot90.push_back(h.tpot_p90_ms);
    ttft_n = h.ttft_n;
    tpot_n = h.tpot_n;
  }
  const int64_t np = static_cast<int64_t>(passes.size());
  sheet.Set("setup_s", Median(setup_s), "s",
            static_cast<int64_t>(setup_s.size()));
  sheet.Set("peak_rss_mb", peak_rss_mb, "MB");
  sheet.Set("host_tok_per_s",
            static_cast<double>(passes.front().m.total_tokens()) /
                Best(serve_s),
            "1/s", np);
  sheet.Set("host_ttft_ms", Best(ttft), "ms", np * ttft_n);
  sheet.Set("host_tpot_p50_ms", Best(tpot50), "ms", np * tpot_n);
  sheet.Set("host_tpot_p90_ms", Best(tpot90), "ms", np * tpot_n);
}

// Simulated figures of the window (identical in every pass).
void ReportSimulated(const Shape& s, const ServingMetrics& m,
                     double slo_rate_rps, Sheet& sheet) {
  sheet.Set("completed_ratio",
            static_cast<double>(sheet.attempted - sheet.failed) /
                static_cast<double>(sheet.attempted),
            "ratio", sheet.attempted);
  SetLatencyTail(sheet, "sim_ttft", TtftMs(m));
  SetLatencyTail(sheet, "sim_tpot", TpotMs(m));
  SetLatencyTail(sheet, "sim_task", TaskMs(m));
  sheet.Set("sim_tok_per_s", m.aggregate_tokens_per_s(), "1/s",
            m.total_tokens());
  sheet.Set("sim_energy_mj_per_tok",
            m.energy / 1e3 / static_cast<double>(m.total_tokens()), "mJ",
            m.total_tokens());
  sheet.Set("sim_slo_rate_rps", slo_rate_rps, "1/s",
            static_cast<int64_t>(s.slo_rate_factors.size()));
}

void ReportPerLayer(const Setup& setup, const Pass& p,
                    const std::vector<double>& gen_s,
                    const std::vector<double>& weights_s,
                    const std::vector<double>& replica_s, Sheet& sheet) {
  const ServingMetrics& m = p.m;
  const Inputs& in = setup.inputs;
  sheet.Set("workload.gen_s", Median(gen_s), "s",
            static_cast<int64_t>(gen_s.size()));
  sheet.Set("workload.requests", static_cast<double>(in.items), "count");
  sheet.Set("workload.prompt_tokens", static_cast<double>(in.prompt_tokens),
            "count");
  sheet.Set("workload.decode_tokens", static_cast<double>(in.decode_tokens),
            "count");
  sheet.Set("model.weights_create_s", Median(weights_s), "s",
            static_cast<int64_t>(weights_s.size()));
  sheet.Set("model.weights_mb", setup.weights_mb, "MB");
  sheet.Set("serve.replica_create_s", Median(replica_s), "s",
            static_cast<int64_t>(replica_s.size()));
  const int64_t rounds = static_cast<int64_t>(p.round_s.size());
  double round_total = 0;
  std::vector<double> round_us;
  for (double r : p.round_s) {
    round_total += r;
    round_us.push_back(r * 1e6);
  }
  sheet.Set("serve.rounds", static_cast<double>(rounds), "count");
  sheet.Set("serve.round_host_us_p50", Percentile(round_us, 50), "us",
            rounds);
  sheet.Set("serve.round_host_us_p90", Percentile(round_us, 90), "us",
            rounds);
  sheet.Set("serve.round_host_s_total", round_total, "s", rounds);
  sheet.Set("serve.decode_iterations", m.decode_iterations, "count");
  sheet.Set("serve.avg_decode_batch", m.avg_decode_batch, "count");
  sheet.Set("serve.prefill_chunks", m.prefill_chunks, "count");
  sheet.Set("serve.hybrid_iterations", m.hybrid_iterations, "count");
  sheet.Set("serve.chunk_resumed_tokens",
            static_cast<double>(m.chunk_resumed_tokens), "count");
  sheet.Set("serve.evictions", m.evictions, "count");
  sheet.Set("serve.peak_active_sessions", m.peak_active_sessions, "count");
  sheet.Set("kv.prefix_hit_rate", m.prefix_hit_rate(), "ratio",
            m.prefilled_tokens);
  sheet.Set("kv.prefix_hit_tokens", static_cast<double>(m.prefix_hit_tokens),
            "count");
  sheet.Set("kv.prefilled_tokens", static_cast<double>(m.prefilled_tokens),
            "count");
  sheet.Set("kv.blocks_evicted", static_cast<double>(m.blocks_evicted),
            "count");
  sheet.Set("kv.blocks_peak", static_cast<double>(m.kv_blocks_peak), "count");
  std::vector<double> stage_queue;
  for (const auto& t : m.tasks) {
    for (const auto& st : t.stages) stage_queue.push_back(st.queue_us() / 1e3);
  }
  const int64_t nq = static_cast<int64_t>(stage_queue.size());
  sheet.Set("task.stages_released", p.stages_released, "count");
  sheet.Set("task.stage_queue_p50_ms", Percentile(stage_queue, 50), "ms", nq);
  sheet.Set("task.stage_queue_p90_ms", Percentile(stage_queue, 90), "ms", nq);
  sheet.Set("spec.draft_tokens", static_cast<double>(m.total_draft_tokens()),
            "count");
  sheet.Set("spec.accepted_tokens",
            static_cast<double>(m.total_accepted_tokens()), "count");
  sheet.Set("spec.acceptance_rate", m.speculative_acceptance_rate(), "ratio",
            m.total_draft_tokens());
  sheet.Set("core.schedule_compiles_setup", setup.compiles_setup,
            "count");
  sheet.Set("core.schedule_compiles_run", p.compiles_run, "count");
  sheet.Set("core.replan_events", m.replan_events, "count");
  ReportSimulatedUnits(m.report, m.total_tokens(), round_total, sheet);
  const auto [q1, q4] = QuarterTtftMs(m);
  sheet.Set("guard.ttft_first_quarter_ms", q1, "ms");
  sheet.Set("guard.ttft_last_quarter_ms", q4, "ms");
}

}  // namespace

void RunServing(const RunConfig& cfg, Sheet& sheet) {
  const Shape s = ShapeFor(cfg.workload);
  Tracer off(false);
  std::vector<Pass> passes;          // untraced
  std::vector<Pass> traced;          // traced run only
  std::vector<Tracer> tracers;       // one per traced pass
  std::vector<double> setup_s, gen_s, weights_s, replica_s;

  // Set-up samples first, on a fresh heap: each takes milliseconds, so many
  // of them steady the median. The first one's inputs are kept.
  auto record = [&](const Setup& st) {
    setup_s.push_back(st.total_s());
    gen_s.push_back(st.gen_s);
    weights_s.push_back(st.weights_s);
    replica_s.push_back(st.replica_s);
  };
  const Setup first_setup = MakeSetup(s, cfg.seed, 1.0, off);
  record(first_setup);
  while (setup_s.size() < 40) record(MakeSetup(s, cfg.seed, 1.0, off));
  if (cfg.setup_only) {
    sheet.Set("setup_s", Median(setup_s), "s",
              static_cast<int64_t>(setup_s.size()));
    return;
  }

  double peak_rss_mb = 0;
  // Timed region: passes, each on its own fresh set-up, until the run's
  // host seconds are spent (at least two, so the same-seed repeat is
  // checked). The traced run alternates untraced and traced passes so both
  // see the same machine state; a traced pass traces its set-up too.
  const double start = HostSeconds();
  while (HostSeconds() - start < cfg.seconds || passes.size() < 2 ||
         (cfg.trace && traced.empty())) {
    if (cfg.trace && passes.size() > traced.size()) {
      tracers.emplace_back(true);
      Tracer& tracer = tracers.back();
      const int root = tracer.Begin("perfbench", "pass");
      Setup st = MakeSetup(s, cfg.seed, 1.0, tracer);
      traced.push_back(ServeOnce(s, st, tracer));
      tracer.End(root);
    } else {
      Setup st = MakeSetup(s, cfg.seed, 1.0, off);
      passes.push_back(ServeOnce(s, st, off));
    }
    // Peak memory of one batch served once: later passes reuse a heap the
    // first one already grew, so their peaks say more about the allocator.
    if (peak_rss_mb == 0) peak_rss_mb = PeakRssMb();
  }

  // ---- Untimed: correctness, determinism and the SLO sweep. -------------
  const Inputs& in = first_setup.inputs;
  sheet.attempted = in.items;
  const int64_t bad = CheckPass(s, in, passes.front(), sheet, "first pass");
  sheet.failed = bad;
  const std::string fp = Fingerprint(passes.front().m);
  for (size_t i = 1; i < passes.size(); ++i) {
    CheckPass(s, in, passes[i], sheet, "repeat pass");
    sheet.Check(Fingerprint(passes[i].m) == fp,
                "same seed reproduces every simulated value (repeat pass)");
  }
  for (const Pass& p : traced) {
    CheckPass(s, in, p, sheet, "traced pass");
    sheet.Check(Fingerprint(p.m) == fp,
                "traced pass reproduces the untraced simulated values");
  }
  const auto [q1, q4] = QuarterTtftMs(passes.front().m);
  std::printf("saturation guard: TTFT median first quarter %.3f ms, last "
              "quarter %.3f ms (limit 2x)\n", q1, q4);
  sheet.Check(GuardHolds(passes.front().m),
              "saturation guard: last-quarter median TTFT <= 2x first");

  if (cfg.trace) {
    // The library's own loop must produce the identical window.
    Setup ref = MakeSetup(s, cfg.seed, 1.0, off);
    sheet.Check(Fingerprint(ServeReference(s, ref)) == fp,
                "hand-driven loop equals the library loop (Replica::Serve / "
                "serve::ServeTasks)");
  } else {
    // A different seed must change the simulated values. Serving the first
    // eighth of each trace shows it at an eighth of the cost.
    const size_t prefix =
        static_cast<size_t>((s.agentic ? s.tasks : s.requests) / 8);
    Setup mine = MakeSetup(s, cfg.seed, 1.0, off, prefix);
    Setup other = MakeSetup(s, cfg.seed + 1, 1.0, off, prefix);
    sheet.Check(Fingerprint(ServeOnce(s, mine, off).m) !=
                    Fingerprint(ServeOnce(s, other, off).m),
                "a different seed changes the simulated values");
  }

  ReportHost(passes, setup_s, peak_rss_mb, sheet);
  if (!cfg.trace) {
    // SLO sweep: the highest fixed rate at which >= 90% of requests meet
    // both limits with no growing backlog, reported as the realized
    // arrival rate of the trace served there.
    double slo_rate = 0;
    for (double factor : s.slo_rate_factors) {
      ServingMetrics m;
      if (factor == 1.0) {
        m = passes.front().m;
      } else {
        Setup st = MakeSetup(s, cfg.seed, factor, off);
        m = ServeOnce(s, st, off).m;
      }
      const double attain = SloAttainment(s, m);
      const bool ok = attain >= 0.9 && GuardHolds(m);
      std::printf("slo sweep: rate x%.2f (%.4f req/s): attainment %.4f, "
                  "guard %s\n", factor, RealizedRate(m), attain,
                  GuardHolds(m) ? "ok" : "backlog");
      if (ok) slo_rate = std::max(slo_rate, RealizedRate(m));
    }
    ReportSimulated(s, passes.front().m, slo_rate, sheet);
    return;
  }

  // ---- Traced run: per-layer metrics. -----------------------------------
  ReportPerLayer(first_setup, traced.front(), gen_s, weights_s, replica_s,
                 sheet);
  std::vector<double> untraced_s, traced_s;
  for (const Pass& p : passes) untraced_s.push_back(p.serve_s);
  for (const Pass& p : traced) traced_s.push_back(p.serve_s);
  ReportTracing(tracers, untraced_s, traced_s, cfg.trace_path, sheet);
  sheet.Set("task.graph_host_us_total",
            sheet.metrics["self_s.task"].value * 1e6, "us",
            static_cast<int64_t>(traced.size()));
}

}  // namespace perfbench
