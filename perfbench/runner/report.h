// Per-layer figures both kinds of workload report the same way.

#ifndef PERFBENCH_RUNNER_REPORT_H_
#define PERFBENCH_RUNNER_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/execution_report.h"
#include "runner/stats.h"
#include "runner/trace.h"

namespace perfbench {

// hal.{cpu,gpu,npu}.* from the window's unit rows, and the simulator's
// sim.kernels, sim.kernels_per_tok (over `tokens`) and sim.host_us_per_kernel
// (`host_s` of serving over the kernels).
void ReportSimulatedUnits(const heterollm::core::ExecutionReport& report,
                          int64_t tokens, double host_s, Sheet& sheet);

// self_s.<layer> (median over the traced passes), trace.overhead_pct
// (median traced vs untraced host seconds of the same work) and
// trace.spans; writes the first traced pass's spans to `trace_path`.
void ReportTracing(const std::vector<Tracer>& tracers,
                   const std::vector<double>& untraced_s,
                   const std::vector<double>& traced_s,
                   const std::string& trace_path, Sheet& sheet);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_REPORT_H_
