// Serving throughput: serial replay vs continuous batching at 4/8/16
// concurrent chat sessions over one Hetero-tensor SoC.
//
// Decode is bandwidth-bound (paper §4.1.2), so batching B sessions into one
// decode iteration streams the weights from DRAM once instead of B times;
// the table below shows the resulting aggregate-throughput speedup and the
// TTFT tail. Pass --report_json=<path> to capture per-{sessions, policy}
// metrics (including full ServingMetrics) in the machine-readable report.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/strings.h"
#include "src/common/table.h"
#include "src/serve/iteration_scheduler.h"
#include "src/serve/replica.h"
#include "src/serve/request_queue.h"
#include "src/serve/serving_metrics.h"

namespace heterollm {
namespace {

using model::ModelConfig;
using serve::IterationPolicy;
using serve::RequestQueue;
using serve::SchedulerOptions;
using serve::ServingMetrics;

constexpr const char* kEngine = "Hetero-tensor";
constexpr int kMaxBatch = 16;
constexpr MicroSeconds kMeanInterarrivalUs = 5e4;  // 20 req/s offered load

RequestQueue MakeTrace(int sessions) {
  Rng rng(2024 + sessions);
  return RequestQueue::Synthetic(rng, sessions, kMeanInterarrivalUs,
                                 /*min_prompt=*/32, /*max_prompt=*/384,
                                 /*min_decode=*/16, /*max_decode=*/48);
}

ServingMetrics ServeOnce(const model::ModelWeights& weights, int sessions,
                         IterationPolicy policy) {
  serve::ReplicaOptions ropts;
  ropts.platform = core::PlatformOptionsFor(kEngine);
  ropts.engine = kEngine;
  ropts.scheduler.iteration = policy;
  ropts.scheduler.max_decode_batch = kMaxBatch;
  auto replica = serve::Replica::Create(ropts, &weights);
  HCHECK(replica.ok());
  return (*replica)->Serve(MakeTrace(sessions));
}

void PrintServingComparison(report::BenchReport& report) {
  benchx::PrintHeader(report, "Serving",
                      "serial replay vs continuous batching (InternLM-1.8B)");
  const ModelConfig cfg = ModelConfig::InternLM1_8B();
  model::ModelWeights weights =
      model::ModelWeights::Create(cfg, model::ExecutionMode::kSimulate);

  TextTable table({"sessions", "policy", "agg tok/s", "speedup",
                   "ttft p50 (ms)", "ttft p99 (ms)", "e2e p99 (ms)",
                   "avg batch"});
  for (int sessions : {4, 8, 16}) {
    const ServingMetrics serial =
        ServeOnce(weights, sessions, IterationPolicy::kSerial);
    const ServingMetrics cb =
        ServeOnce(weights, sessions, IterationPolicy::kPrefillFirst);
    const double speedup =
        cb.aggregate_tokens_per_s() / serial.aggregate_tokens_per_s();
    struct Row {
      const char* policy;
      const ServingMetrics* m;
      double speedup;
    };
    for (const Row& row : {Row{"serial", &serial, 1.0},
                           Row{"continuous", &cb, speedup}}) {
      table.AddRow({StrFormat("%d", sessions), row.policy,
                    StrFormat("%.1f", row.m->aggregate_tokens_per_s()),
                    StrFormat("%.2fx", row.speedup),
                    StrFormat("%.1f", row.m->ttft_p50() / 1e3),
                    StrFormat("%.1f", row.m->ttft_p99() / 1e3),
                    StrFormat("%.1f", row.m->latency_p99() / 1e3),
                    StrFormat("%.2f", row.m->avg_decode_batch)});
      const std::string prefix =
          StrFormat("serving.s%d.%s", sessions, row.policy);
      benchx::AddServingMetrics(report, prefix, *row.m);
      report.AddMetric(prefix + ".speedup_vs_serial", row.speedup,
                       benchx::HigherIsBetter("x"));
    }
  }
  benchx::EmitTable(report, "serving_throughput", table);

  // Mixed long-prompt/short-decode traffic: the scenario where the
  // iteration policy, not the batching itself, decides the decode tail.
  // Document ingestions (768-1024 token prompts) land between short chat
  // turns; prefill-first stalls the whole decode batch for each document
  // pass while hybrid-chunked fuses one chunk into each decode round.
  // bench_chunked_prefill gates the full sweep; this section keeps the
  // policy face-off visible next to the serial-vs-continuous table.
  TextTable mixed_table({"policy", "tpot p99 (ms)", "ttft mean (ms)",
                         "agg tok/s", "chunks"});
  const RequestQueue mixed_trace = [&] {
    Rng rng(4048);
    return RequestQueue::SyntheticMixed(
        rng, /*count=*/16, kMeanInterarrivalUs, /*long_fraction=*/0.25,
        /*min_long_prompt=*/768, /*max_long_prompt=*/1024,
        /*long_decode=*/8, /*min_prompt=*/32, /*max_prompt=*/96,
        /*min_decode=*/24, /*max_decode=*/48);
  }();
  for (const IterationPolicy policy :
       {IterationPolicy::kPrefillFirst, IterationPolicy::kHybridChunked}) {
    serve::ReplicaOptions ropts;
    ropts.platform = core::PlatformOptionsFor(kEngine);
    ropts.engine = kEngine;
    ropts.scheduler.iteration = policy;
    ropts.scheduler.max_decode_batch = kMaxBatch;
    ropts.scheduler.prefill_chunk_tokens = 128;
    ropts.scheduler.kv_budget_bytes = 512 * kMiB;
    auto replica = serve::Replica::Create(ropts, &weights);
    HCHECK(replica.ok());
    const ServingMetrics m = (*replica)->Serve(mixed_trace);
    const char* name = policy == IterationPolicy::kPrefillFirst
                           ? "prefill_first"
                           : "hybrid_chunked";
    mixed_table.AddRow({name, StrFormat("%.1f", m.tpot_tail().p99 / 1e3),
                        StrFormat("%.1f", m.ttft_mean() / 1e3),
                        StrFormat("%.1f", m.aggregate_tokens_per_s()),
                        StrFormat("%d", m.prefill_chunks)});
    const std::string prefix = StrFormat("serving.mixed16.%s", name);
    benchx::AddServingMetrics(report, prefix, m);
    report.AddMetric(prefix + ".tpot_p99_ms", m.tpot_tail().p99 / 1e3,
                     benchx::LowerIsBetter("ms"));
    report.AddMetric(prefix + ".ttft_mean_ms", m.ttft_mean() / 1e3,
                     benchx::LowerIsBetter("ms"));
  }
  benchx::EmitTable(report, "serving_throughput_mixed", mixed_table);
}

void BM_Serve(benchmark::State& state) {
  const int sessions = static_cast<int>(state.range(0));
  const IterationPolicy policy = state.range(1) == 0
                                     ? IterationPolicy::kSerial
                                     : IterationPolicy::kPrefillFirst;
  const ModelConfig cfg = ModelConfig::InternLM1_8B();
  model::ModelWeights weights =
      model::ModelWeights::Create(cfg, model::ExecutionMode::kSimulate);
  double tok_s = 0;
  double ttft_p99_ms = 0;
  for (auto _ : state) {
    const ServingMetrics m = ServeOnce(weights, sessions, policy);
    tok_s = m.aggregate_tokens_per_s();
    ttft_p99_ms = m.ttft_p99() / 1e3;
  }
  state.counters["sim_agg_tok_per_s"] = tok_s;
  state.counters["sim_ttft_p99_ms"] = ttft_p99_ms;
  state.SetLabel(StrFormat("%d sessions, %s", sessions,
                           state.range(1) == 0 ? "serial" : "continuous"));
}
BENCHMARK(BM_Serve)
    ->Args({4, 0})->Args({4, 1})
    ->Args({8, 0})->Args({8, 1})
    ->Args({16, 0})->Args({16, 1})
    ->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace heterollm

HETEROLLM_BENCH_MAIN("serving_throughput", heterollm::PrintServingComparison)
