// Chunked prefill under mixed traffic: kPrefillFirst vs kHybridChunked on
// a long-prompt/short-decode mix over one Hetero-tensor SoC.
//
// A monolithic prefill of a document-sized prompt stalls every decoding
// session for the whole pass, so the decode inter-token gap (TPOT) tail
// grows with the longest prompt in flight. kHybridChunked splits prompts
// into chunks and runs one chunk with each decode round as a single pass
// of at most `prefill_chunk_tokens` rows, bounding the stall to one pass. The headline gated metric is the TPOT p99 improvement at each
// load point; the TTFT-mean ratio is gated alongside it to show the win is
// not bought by starving prompt admission. Pass --report_json=<path> for
// the machine-readable report.

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
using serve::ServingMetrics;

constexpr const char* kEngine = "Hetero-tensor";
constexpr int kMaxBatch = 8;
constexpr int64_t kChunkTokens = 128;
constexpr MicroSeconds kMeanInterarrivalUs = 3e4;

// A quarter of the requests are document ingestions (768-1024 token
// prompts, 8 output tokens); the rest are short chat turns decoding while
// the documents prefill.
RequestQueue MakeMixedTrace(int count) {
  Rng rng(7100 + count);
  return RequestQueue::SyntheticMixed(
      rng, count, kMeanInterarrivalUs, /*long_fraction=*/0.25,
      /*min_long_prompt=*/768, /*max_long_prompt=*/1024, /*long_decode=*/8,
      /*min_prompt=*/32, /*max_prompt=*/96, /*min_decode=*/24,
      /*max_decode=*/48);
}

ServingMetrics ServeOnce(const model::ModelWeights& weights, int count,
                         IterationPolicy policy) {
  serve::ReplicaOptions ropts;
  ropts.platform = core::PlatformOptionsFor(kEngine);
  ropts.engine = kEngine;
  ropts.scheduler.iteration = policy;
  ropts.scheduler.max_decode_batch = kMaxBatch;
  ropts.scheduler.prefill_chunk_tokens = kChunkTokens;
  ropts.scheduler.kv_budget_bytes = 512 * kMiB;
  auto replica = serve::Replica::Create(ropts, &weights);
  HCHECK(replica.ok());
  return (*replica)->Serve(MakeMixedTrace(count));
}

void PrintChunkedPrefill(report::BenchReport& report) {
  benchx::PrintHeader(report,
                      "Chunked prefill",
                      "prefill-first vs hybrid-chunked under mixed "
                      "long-prompt/short-decode traffic (InternLM-1.8B)");
  const ModelConfig cfg = ModelConfig::InternLM1_8B();
  model::ModelWeights weights =
      model::ModelWeights::Create(cfg, model::ExecutionMode::kSimulate);

  TextTable table({"requests", "policy", "tpot p50 (ms)", "tpot p99 (ms)",
                   "ttft mean (ms)", "ttft p99 (ms)", "agg tok/s", "chunks",
                   "hybrid iters"});
  for (int count : {12, 24}) {
    const ServingMetrics pf =
        ServeOnce(weights, count, IterationPolicy::kPrefillFirst);
    const ServingMetrics hy =
        ServeOnce(weights, count, IterationPolicy::kHybridChunked);
    struct Row {
      const char* policy;
      const ServingMetrics* m;
    };
    for (const Row& row :
         {Row{"prefill_first", &pf}, Row{"hybrid_chunked", &hy}}) {
      const ServingMetrics& m = *row.m;
      table.AddRow({StrFormat("%d", count), row.policy,
                    StrFormat("%.1f", m.tpot_tail().p50 / 1e3),
                    StrFormat("%.1f", m.tpot_tail().p99 / 1e3),
                    StrFormat("%.1f", m.ttft_mean() / 1e3),
                    StrFormat("%.1f", m.ttft_p99() / 1e3),
                    StrFormat("%.1f", m.aggregate_tokens_per_s()),
                    StrFormat("%d", m.prefill_chunks),
                    StrFormat("%d", m.hybrid_iterations)});
      const std::string prefix =
          StrFormat("chunked.r%d.%s", count, row.policy);
      benchx::AddServingMetrics(report, prefix, m);
      report.AddMetric(prefix + ".tpot_p50_ms", m.tpot_tail().p50 / 1e3,
                       benchx::LowerIsBetter("ms"));
      report.AddMetric(prefix + ".tpot_p99_ms", m.tpot_tail().p99 / 1e3,
                       benchx::LowerIsBetter("ms"));
      report.AddMetric(prefix + ".ttft_mean_ms", m.ttft_mean() / 1e3,
                       benchx::LowerIsBetter("ms"));
      report.AddMetric(prefix + ".prefill_chunks",
                       static_cast<double>(m.prefill_chunks),
                       benchx::Calibration(""));
      report.AddMetric(prefix + ".hybrid_iterations",
                       static_cast<double>(m.hybrid_iterations),
                       benchx::Calibration(""));
      report.AddMetric(prefix + ".chunked_prefill_tokens",
                       static_cast<double>(m.chunked_prefill_tokens),
                       benchx::Calibration("tok"));
    }
    // Headline gates: hybrid must keep its TPOT-p99 win over prefill-first
    // (ratio > 1, HigherIsBetter), and its TTFT mean must stay within a
    // generous band of prefill-first's — chunking trades a bounded amount
    // of prompt latency for the decode tail, and the gate pins that trade.
    const std::string head = StrFormat("chunked.r%d", count);
    report.AddMetric(head + ".tpot_p99_improvement",
                     static_cast<double>(pf.tpot_tail().p99) /
                         static_cast<double>(hy.tpot_tail().p99),
                     benchx::HigherIsBetter("x"));
    report.AddMetric(head + ".ttft_mean_ratio",
                     static_cast<double>(hy.ttft_mean()) /
                         static_cast<double>(pf.ttft_mean()),
                     benchx::LowerIsBetter("x", /*tolerance=*/0.25));
  }
  benchx::EmitTable(report, "chunked_prefill", table);
}

void BM_ChunkedServe(benchmark::State& state) {
  const int count = static_cast<int>(state.range(0));
  const IterationPolicy policy = state.range(1) == 0
                                     ? IterationPolicy::kPrefillFirst
                                     : IterationPolicy::kHybridChunked;
  const ModelConfig cfg = ModelConfig::InternLM1_8B();
  model::ModelWeights weights =
      model::ModelWeights::Create(cfg, model::ExecutionMode::kSimulate);
  double tpot_p99_ms = 0;
  double ttft_mean_ms = 0;
  for (auto _ : state) {
    const ServingMetrics m = ServeOnce(weights, count, policy);
    tpot_p99_ms = m.tpot_tail().p99 / 1e3;
    ttft_mean_ms = m.ttft_mean() / 1e3;
  }
  state.counters["sim_tpot_p99_ms"] = tpot_p99_ms;
  state.counters["sim_ttft_mean_ms"] = ttft_mean_ms;
  state.SetLabel(StrFormat(
      "%d requests, %s", count,
      state.range(1) == 0 ? "prefill_first" : "hybrid_chunked"));
}
BENCHMARK(BM_ChunkedServe)
    ->Args({12, 0})->Args({12, 1})
    ->Args({24, 0})->Args({24, 1})
    ->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace heterollm

HETEROLLM_BENCH_MAIN("chunked_prefill", heterollm::PrintChunkedPrefill)
