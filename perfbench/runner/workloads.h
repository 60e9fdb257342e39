// The benchmark's workloads. Each runs in its own process (one per
// runner invocation), generates its inputs from the seed, measures for the
// requested host seconds and fills one result sheet.

#ifndef PERFBENCH_RUNNER_WORKLOADS_H_
#define PERFBENCH_RUNNER_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "runner/stats.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  // false: untraced run, end-to-end metrics. true: traced run, per-layer
  // metrics (untraced passes run alongside for the overhead figure).
  bool trace = false;
  // Where the traced run writes its spans (Chrome trace-event JSON).
  std::string trace_path;
  // Only sample set-up and report setup_s. Set-up time differs by up to
  // 1.5x from one process to the next (heap and page placement), so
  // run.py takes the median over several such processes.
  bool setup_only = false;
  // Worker threads for compute-mode kernels (tensor::KernelOptions).
  int kernel_threads = 1;
};

// agentic_throttled / mixed_chunked_spec: serving-stack workloads.
void RunServing(const RunConfig& config, Sheet& sheet);
// compute_w4a16: one compute-mode session, real FP32/W4A16 math.
void RunCompute(const RunConfig& config, Sheet& sheet);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_WORKLOADS_H_
