// serving_demo: multi-session serving on one simulated mobile SoC.
//
// Generates a Poisson arrival trace of chat requests, serves it three times
// over the Hetero-tensor engine — serial FIFO replay (`kSerial`: the same
// scheduling rounds with admission capped at one active session),
// continuous batching (`kPrefillFirst`), and continuous batching on a
// throttled platform (sustained-thermal model plus a scripted NPU clock
// cap) — and prints the per-request table plus aggregate throughput/latency
// metrics for each. A final section serves an
// agentic task-DAG trace (multi-turn embed→rerank→generate→resume chains)
// through the TaskGraph release loop with stage-aware priority admission
// and the prefix cache, printing the per-task rollup.
//
//   ./serving_demo [sessions] [seed]
//
// Defaults: 8 sessions, seed 7.

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "src/core/engine_registry.h"
#include "src/serve/iteration_scheduler.h"
#include "src/serve/request_queue.h"
#include "src/serve/replica.h"
#include "src/serve/serving_metrics.h"
#include "src/serve/task_graph.h"
#include "src/sim/thermal_model.h"
#include "src/workload/task_trace.h"

using namespace heterollm;  // NOLINT

int main(int argc, char** argv) {
  const int sessions = argc > 1 ? std::atoi(argv[1]) : 8;
  const uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 7;
  if (sessions < 1) {
    std::fprintf(stderr, "usage: %s [sessions>=1] [seed]\n", argv[0]);
    return 1;
  }

  const model::ModelConfig cfg = model::ModelConfig::InternLM1_8B();
  model::ModelWeights weights =
      model::ModelWeights::Create(cfg, model::ExecutionMode::kSimulate);

  Rng rng(seed);
  serve::RequestQueue queue = serve::RequestQueue::Synthetic(
      rng, sessions, /*mean_interarrival_us=*/5e4);

  const int max_batch = std::min(sessions, 16);
  auto serve_once = [&](serve::IterationPolicy policy, bool throttled) {
    core::PlatformOptions popts = core::PlatformOptionsFor("Hetero-tensor");
    if (throttled) {
      popts.thermal = sim::ThermalConfig::MobileSustained();
      sim::ConditionEvent cap;  // governor caps the NPU 100 ms into the run
      cap.time = 1e5;
      cap.unit = "npu";
      cap.frequency_cap = 0.5;
      popts.conditions = {cap};
    }
    serve::ReplicaOptions ropts;
    ropts.platform = popts;
    ropts.scheduler.iteration = policy;
    ropts.scheduler.max_decode_batch = max_batch;
    StatusOr<std::unique_ptr<serve::Replica>> replica =
        serve::Replica::Create(ropts, &weights);
    if (!replica.ok()) {
      std::fprintf(stderr, "replica setup failed: %s\n",
                   replica.status().ToString().c_str());
      std::exit(1);
    }
    return (*replica)->Serve(queue);
  };

  std::printf("== serial FIFO replay (%d sessions, InternLM-1.8B) ==\n",
              sessions);
  const serve::ServingMetrics serial =
      serve_once(serve::IterationPolicy::kSerial, /*throttled=*/false);
  std::printf("%s\n", serial.Render().c_str());

  std::printf("== continuous batching ==\n");
  const serve::ServingMetrics cb =
      serve_once(serve::IterationPolicy::kPrefillFirst, /*throttled=*/false);
  std::printf("%s\n", cb.Render().c_str());

  std::printf("== continuous batching, throttled (NPU capped to 0.5x) ==\n");
  const serve::ServingMetrics hot =
      serve_once(serve::IterationPolicy::kPrefillFirst, /*throttled=*/true);
  std::printf("%s\n", hot.Render().c_str());

  std::printf("continuous batching speedup: %.2fx aggregate tokens/s\n",
              cb.aggregate_tokens_per_s() / serial.aggregate_tokens_per_s());
  std::printf(
      "throttling cost: %.2fx slower aggregate tokens/s, %d re-plan(s)\n",
      cb.aggregate_tokens_per_s() / hot.aggregate_tokens_per_s(),
      hot.replan_events);

  std::printf(
      "\n== agentic task DAGs (stage-aware admission + prefix cache) ==\n");
  {
    Rng task_rng(seed + 1);
    workload::AgenticTraceOptions topts;
    topts.tasks = std::max(2, sessions / 2);
    serve::TaskGraph graph(workload::SyntheticAgenticTrace(task_rng, topts));
    serve::ReplicaOptions ropts;
    ropts.platform = core::PlatformOptionsFor("Hetero-tensor");
    ropts.scheduler.max_decode_batch = max_batch;
    ropts.scheduler.admission = serve::AdmissionPolicy::kPriority;
    ropts.scheduler.enable_prefix_cache = true;
    StatusOr<std::unique_ptr<serve::Replica>> replica =
        serve::Replica::Create(ropts, &weights);
    if (!replica.ok()) {
      std::fprintf(stderr, "replica setup failed: %s\n",
                   replica.status().ToString().c_str());
      return 1;
    }
    const serve::ServingMetrics tasks = serve::ServeTasks(**replica, graph);
    std::printf("%s\n", tasks.Render().c_str());
  }
  return 0;
}
