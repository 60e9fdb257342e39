// perfbench_runner: runs one benchmark workload in this process and prints
// its result sheet.
//
//   perfbench_runner --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> [--trace-path <file>] [--setup-only 1]
//
// Human-readable lines come first; the last line is
// `PERFBENCH_RESULT {json}` with every metric (value, unit, samples), the
// request accounting and the failed checks. perfbench/run.py turns it into
// the benchmark's result line. Exits 1 if any correctness check failed, 2
// on bad arguments.

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "runner/stats.h"
#include "runner/workloads.h"

namespace perfbench {
namespace {

// Per-layer metrics that exist on only one kind of workload. The others
// report them as 0 so every run prints the same names.
struct NamedUnit {
  const char* name;
  const char* unit;
};
constexpr NamedUnit kServingOnly[] = {
    {"serve.replica_create_s", "s"},
    {"serve.rounds", "count"},
    {"serve.round_host_us_p50", "us"},
    {"serve.round_host_us_p90", "us"},
    {"serve.round_host_s_total", "s"},
    {"serve.decode_iterations", "count"},
    {"serve.avg_decode_batch", "count"},
    {"serve.prefill_chunks", "count"},
    {"serve.hybrid_iterations", "count"},
    {"serve.chunk_resumed_tokens", "count"},
    {"serve.evictions", "count"},
    {"serve.peak_active_sessions", "count"},
    {"kv.prefix_hit_rate", "ratio"},
    {"kv.prefix_hit_tokens", "count"},
    {"kv.prefilled_tokens", "count"},
    {"kv.blocks_evicted", "count"},
    {"kv.blocks_peak", "count"},
    {"task.stages_released", "count"},
    {"task.stage_queue_p50_ms", "ms"},
    {"task.stage_queue_p90_ms", "ms"},
    {"task.graph_host_us_total", "us"},
    {"spec.draft_tokens", "count"},
    {"spec.accepted_tokens", "count"},
    {"spec.acceptance_rate", "ratio"},
    {"guard.ttft_first_quarter_ms", "ms"},
    {"guard.ttft_last_quarter_ms", "ms"},
};
constexpr NamedUnit kComputeOnly[] = {
    {"core.engine_create_s", "s"},
    {"core.warmup_s", "s"},
    {"core.prefill_host_ms", "ms"},
    {"core.decode_step_host_ms_p50", "ms"},
    {"core.decode_step_host_ms_p90", "ms"},
    {"tensor.gflop_per_tok", "GFLOP"},
    {"tensor.gb_per_tok", "GB"},
    {"tensor.achieved_gflops", "GFLOP/s"},
    {"tensor.warmup_mb", "MB"},
};

// Reports the metrics of the other kind of workload as 0.
template <size_t N>
void FillAbsent(const NamedUnit (&names)[N], Sheet& sheet) {
  for (const NamedUnit& n : names) {
    if (!sheet.metrics.count(n.name)) sheet.Set(n.name, 0, n.unit, 0);
  }
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload "
               "{agentic_throttled|mixed_chunked_spec|compute_w4a16} --seed "
               "<n> --seconds <s> --trace <0|1> [--trace-path <file>] "
               "[--setup-only 1]\n",
               msg);
  return 2;
}

void PrintResult(const RunConfig& cfg, const Sheet& sheet) {
  std::printf("%-34s %16s %-8s %s\n", "metric", "value", "unit", "samples");
  for (const auto& [name, m] : sheet.metrics) {
    std::printf("%-34s %16.6f %-8s %lld\n", name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.samples));
  }
  for (const std::string& f : sheet.failed_checks) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("PERFBENCH_RESULT {\"workload\":\"%s\",\"seed\":%llu,"
              "\"kernel_threads\":%d,\"trace\":%d,\"attempted\":%lld,"
              "\"failed\":%lld,\"failed_checks\":%zu,\"metrics\":{",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.kernel_threads, cfg.trace ? 1 : 0,
              static_cast<long long>(sheet.attempted),
              static_cast<long long>(sheet.failed),
              sheet.failed_checks.size());
  bool first = true;
  for (const auto& [name, m] : sheet.metrics) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\",\"samples\":%lld}",
                first ? "" : ",", name.c_str(), m.value, m.unit.c_str(),
                static_cast<long long>(m.samples));
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::RunConfig;
  RunConfig cfg;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      cfg.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && cfg.seconds > 0;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        return perfbench::Usage("--trace must be 0 or 1");
      }
      cfg.trace = value == "1";
    } else if (key == "--trace-path") {
      cfg.trace_path = value;
    } else if (key == "--setup-only") {
      cfg.setup_only = value == "1";
    } else {
      return perfbench::Usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds) {
    return perfbench::Usage("missing or malformed arguments");
  }
  const bool serving = cfg.workload == "agentic_throttled" ||
                       cfg.workload == "mixed_chunked_spec";
  const bool compute = cfg.workload == "compute_w4a16";
  if (!serving && !compute) {
    return perfbench::Usage(("unknown workload " + cfg.workload).c_str());
  }
  // Compute-mode kernels run on a fixed 4 threads (fewer on a smaller box),
  // so the figure does not depend on how many cores happen to be idle.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  cfg.kernel_threads = static_cast<int>(std::min(4u, hw));
  std::printf("workload %s seed %llu seconds %g trace %d kernel_threads %d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0, cfg.kernel_threads);

  perfbench::Sheet sheet;
  if (serving) {
    perfbench::RunServing(cfg, sheet);
  } else {
    perfbench::RunCompute(cfg, sheet);
  }
  if (cfg.trace && !cfg.setup_only) {
    if (serving) {
      perfbench::FillAbsent(perfbench::kComputeOnly, sheet);
    } else {
      perfbench::FillAbsent(perfbench::kServingOnly, sheet);
    }
  }
  perfbench::PrintResult(cfg, sheet);
  std::fflush(stdout);
  return sheet.failed_checks.empty() ? 0 : 1;
}
