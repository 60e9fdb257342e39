// Agentic/RAG task-DAG serving: stage-aware scheduling vs a FIFO-flat
// baseline, under sustained throttling and bursty background load.
//
// The workload is SyntheticAgenticTrace: multi-turn sessions whose turns
// chain embed -> rerank -> generate [-> tool call -> resume], each turn
// re-entering with the previous turn's prompt as a strict prefix. Three
// configurations serve the same trace through the TaskGraph release loop:
//
//   fifo_flat      — FIFO admission, prefix cache off: every released
//                    stage queues like an unrelated fresh request.
//   stage_priority — priority admission (completed-stages stamp): later
//                    stages of in-flight tasks admit ahead of fresh roots.
//   stage_aware    — priority admission + prefix cache: re-entries also
//                    skip the prompt tokens their session already paid for.
//
// Contention comes from three sides at once: overlapping task arrivals
// against a tight KV budget (a waiting queue actually forms), a low-power
// governor capping the NPU at 100 ms, and a foreground app streaming DRAM
// in bursts (workload::BackgroundLoadTrace). The gated claims: stage-aware
// beats FIFO-flat on task latency p99, and cross-turn prefix reuse cuts
// re-entry TTFT vs priority-only. Pass --report_json=<path> for the
// machine-readable comparison.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/common/table.h"
#include "src/model/kv_cache.h"
#include "src/serve/iteration_scheduler.h"
#include "src/serve/replica.h"
#include "src/serve/serving_metrics.h"
#include "src/serve/task_graph.h"
#include "src/sim/thermal_model.h"
#include "src/workload/task_trace.h"

namespace heterollm {
namespace {

using model::KvCache;
using model::ModelConfig;
using serve::AdmissionPolicy;
using serve::ServingMetrics;
using serve::StageMetrics;
using serve::TaskMetrics;
using workload::StageKind;
using workload::TaskSpec;

constexpr const char* kEngine = "Hetero-tensor";
constexpr int kTasks = 10;
constexpr int kMaxBatch = 4;

std::vector<TaskSpec> MakeTrace() {
  Rng rng(1312);
  workload::AgenticTraceOptions topts;
  topts.tasks = kTasks;
  topts.mean_interarrival_us = 2e4;  // sessions overlap heavily
  return workload::SyntheticAgenticTrace(rng, topts);
}

// NPU governor cap at 100 ms plus bursty DRAM streaming (40% duty cycle)
// from a foreground app — the regime the whole run executes under.
std::vector<sim::ConditionEvent> Conditions() {
  std::vector<sim::ConditionEvent> trace = workload::BackgroundLoadTrace(
      /*period_us=*/1e5, /*busy_us=*/4e4,
      /*bandwidth_bytes_per_us=*/12e3, /*duration_us=*/2e6);
  sim::ConditionEvent cap;
  cap.time = 1e5;
  cap.unit = "npu";
  cap.frequency_cap = 0.4;
  trace.push_back(cap);
  std::stable_sort(trace.begin(), trace.end(),
                   [](const sim::ConditionEvent& a,
                      const sim::ConditionEvent& b) { return a.time < b.time; });
  return trace;
}

struct Config {
  const char* name;
  AdmissionPolicy admission;
  bool prefix_cache;
};

constexpr Config kConfigs[] = {
    {"fifo_flat", AdmissionPolicy::kFifo, false},
    {"stage_priority", AdmissionPolicy::kPriority, false},
    {"stage_aware", AdmissionPolicy::kPriority, true},
};

// Serves the trace once under `config`. When `history_bytes_per_kernel` is
// set, stores the simulator's retained bytes per submitted kernel there.
ServingMetrics ServeOnce(const model::ModelWeights& weights,
                         const Config& config,
                         double* history_bytes_per_kernel = nullptr) {
  const ModelConfig cfg = ModelConfig::InternLM1_8B();
  serve::ReplicaOptions ropts;
  ropts.platform = core::PlatformOptionsFor(kEngine);
  ropts.platform.thermal = sim::ThermalConfig::MobileSustained();
  ropts.platform.conditions = Conditions();
  ropts.engine = kEngine;
  ropts.scheduler.max_decode_batch = kMaxBatch;
  ropts.scheduler.admission = config.admission;
  ropts.scheduler.enable_prefix_cache = config.prefix_cache;
  // Tight pool: the longest session (~120 blocks late in turn 3) plus a
  // fraction of a second one. Stages queue instead of all admitting, which
  // is what makes the admission policy observable.
  ropts.scheduler.kv_budget_bytes = KvCache::BytesForTokens(cfg, 2560);
  auto replica = serve::Replica::Create(ropts, &weights);
  HCHECK(replica.ok());
  serve::TaskGraph graph(MakeTrace());
  ServingMetrics m = serve::ServeTasks(**replica, graph);
  if (history_bytes_per_kernel != nullptr) {
    const sim::SocSimulator& soc = (*replica)->platform().soc();
    *history_bytes_per_kernel = static_cast<double>(soc.history_bytes()) /
                                static_cast<double>(soc.kernel_count());
  }
  return m;
}

// Mean TTFT over re-entry stages: every resume, and every generate after
// the session's first — the stages whose prompt extends a prefix the
// session already prefilled.
double ReentryTtftUs(const std::vector<TaskSpec>& trace,
                     const ServingMetrics& m) {
  double sum = 0;
  int count = 0;
  for (size_t t = 0; t < trace.size(); ++t) {
    bool seen_generate = false;
    for (size_t s = 0; s < trace[t].stages.size(); ++s) {
      const StageKind kind = trace[t].stages[s].kind;
      const StageMetrics& sm = m.tasks[t].stages[s];
      if (kind == StageKind::kResume ||
          (kind == StageKind::kGenerate && seen_generate)) {
        sum += sm.ttft();
        ++count;
      }
      seen_generate = seen_generate || kind == StageKind::kGenerate;
    }
  }
  return count > 0 ? sum / count : 0;
}

void PrintAgenticTasksComparison(report::BenchReport& report) {
  benchx::PrintHeader(
      report, "Agentic task DAGs",
      "stage-aware scheduling vs FIFO-flat on multi-turn agentic/RAG tasks "
      "under NPU throttling + background DRAM load (InternLM-1.8B)");
  const ModelConfig cfg = ModelConfig::InternLM1_8B();
  model::ModelWeights weights =
      model::ModelWeights::Create(cfg, model::ExecutionMode::kSimulate);
  const std::vector<TaskSpec> trace = MakeTrace();

  TextTable table({"config", "task p50 (ms)", "task p99 (ms)",
                   "stage queue p99 (ms)", "re-entry ttft (ms)", "hit rate",
                   "agg tok/s"});
  ServingMetrics runs[3];
  double history_bytes_per_kernel = 0;
  for (int c = 0; c < 3; ++c) {
    const Config& config = kConfigs[c];
    runs[c] = ServeOnce(weights, config, &history_bytes_per_kernel);
    const ServingMetrics& m = runs[c];
    HCHECK(m.tasks.size() == static_cast<size_t>(kTasks));
    const serve::TailStats task_tail = m.task_latency_tail();
    const serve::TailStats queue_tail = m.stage_queue_tail();
    const double reentry_ms = ReentryTtftUs(trace, m) / 1e3;
    table.AddRow({config.name, StrFormat("%.1f", task_tail.p50 / 1e3),
                  StrFormat("%.1f", task_tail.p99 / 1e3),
                  StrFormat("%.1f", queue_tail.p99 / 1e3),
                  StrFormat("%.1f", reentry_ms),
                  StrFormat("%.2f", m.prefix_hit_rate()),
                  StrFormat("%.1f", m.aggregate_tokens_per_s())});
    const std::string prefix = std::string("agentic_tasks.") + config.name;
    benchx::AddServingMetrics(report, prefix, m);
    report.AddMetric(prefix + ".task_latency_p99_ms", task_tail.p99 / 1e3,
                     benchx::LowerIsBetter("ms"));
    report.AddMetric(prefix + ".stage_queue_p99_ms", queue_tail.p99 / 1e3,
                     benchx::LowerIsBetter("ms"));
    report.AddMetric(prefix + ".reentry_ttft_mean_ms", reentry_ms,
                     benchx::LowerIsBetter("ms"));
  }
  benchx::EmitTable(report, "agentic_tasks", table);
  // Host memory the simulator retains per kernel run (last run,
  // stage_aware): bounded stores divided by a run's kernel count, a
  // deterministic figure gated exactly so a per-kernel record cannot come
  // back unnoticed.
  report.AddMetric("agentic_tasks.sim_history_bytes_per_kernel",
                   history_bytes_per_kernel,
                   benchx::LowerIsBetter("B", /*tolerance=*/0));
  std::printf("simulator history: %.2f bytes per kernel\n",
              history_bytes_per_kernel);

  // The two headline gates: stage-aware must beat FIFO-flat on task
  // latency p99, and prefix reuse must cut re-entry TTFT vs priority-only
  // (same admission order, cache the only difference).
  const double p99_speedup = runs[0].task_latency_tail().p99 /
                             runs[2].task_latency_tail().p99;
  const double reentry_cut =
      1.0 - ReentryTtftUs(trace, runs[2]) / ReentryTtftUs(trace, runs[1]);
  report.AddMetric("agentic_tasks.stage_aware_task_p99_speedup", p99_speedup,
                   benchx::HigherIsBetter("x"));
  report.AddMetric("agentic_tasks.reentry_ttft_reduction_pct",
                   reentry_cut * 100.0, benchx::HigherIsBetter("%"));
  std::printf(
      "\ntask latency p99 %.1f -> %.1f ms (%.2fx), re-entry TTFT "
      "%.1f -> %.1f ms (%.0f%% cut from prefix reuse), hit rate %.2f\n",
      runs[0].task_latency_tail().p99 / 1e3,
      runs[2].task_latency_tail().p99 / 1e3, p99_speedup,
      ReentryTtftUs(trace, runs[1]) / 1e3, ReentryTtftUs(trace, runs[2]) / 1e3,
      reentry_cut * 100.0, runs[2].prefix_hit_rate());
}

void BM_AgenticTasks(benchmark::State& state) {
  const Config& config = kConfigs[state.range(0)];
  const ModelConfig cfg = ModelConfig::InternLM1_8B();
  model::ModelWeights weights =
      model::ModelWeights::Create(cfg, model::ExecutionMode::kSimulate);
  double p99_ms = 0;
  for (auto _ : state) {
    const ServingMetrics m = ServeOnce(weights, config);
    p99_ms = m.task_latency_tail().p99 / 1e3;
  }
  state.counters["sim_task_p99_ms"] = p99_ms;
  state.SetLabel(config.name);
}
BENCHMARK(BM_AgenticTasks)
    ->Arg(0)->Arg(1)->Arg(2)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace heterollm

HETEROLLM_BENCH_MAIN("agentic_tasks", heterollm::PrintAgenticTasksComparison)
