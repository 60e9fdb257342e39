// Post-run execution analysis: per-unit utilization and per-operator time
// breakdown, aggregated from the simulator's retirement ledger (or, for a
// window that cuts through a kernel, its recorded kernel timeline). The
// practical companion to the Chrome-trace export — answers "where did the
// time go" (FFN-down share, sync gaps, GPU vs NPU balance) in one table.

#ifndef SRC_CORE_EXECUTION_REPORT_H_
#define SRC_CORE_EXECUTION_REPORT_H_

#include <string>
#include <vector>

#include "src/core/platform.h"

namespace heterollm::core {

struct ExecutionReport {
  struct UnitRow {
    std::string unit;
    MicroSeconds busy = 0;
    double utilization = 0;  // busy / window
    int kernels = 0;
    Bytes bytes = 0;  // DRAM traffic attributed to the window (prorated)
    Flops flops = 0;  // arithmetic work attributed to the window (prorated)
  };
  struct OpRow {
    std::string op;  // canonicalized kernel label (digits collapsed to '#')
    std::string unit;
    MicroSeconds total = 0;
    int count = 0;
    Bytes bytes = 0;
    Flops flops = 0;
  };

  MicroSeconds window_start = 0;
  MicroSeconds window_end = 0;
  std::vector<UnitRow> units;
  std::vector<OpRow> ops;  // sorted by total time, descending

  MicroSeconds window() const { return window_end - window_start; }

  // Where Build reads the kernels from.
  enum class Source {
    kAuto,      // the ledger when it can answer the window, else the timeline
    kLedger,    // the retirement ledger (HCHECKs the window is quiesced)
    kTimeline,  // the recorded kernel timeline (HCHECKs it is recorded)
  };

  // Builds a report over finished kernels overlapping [window_start,
  // window_end]; keeps the `top_n` heaviest op groups. A window whose start
  // and end each follow a `DrainAll` comes from the ledger. A window that
  // cuts through a kernel is prorated from the timeline, which must have
  // been recorded (`sim::SocSimulator::RecordTimeline`).
  static ExecutionReport Build(const Platform& platform,
                               MicroSeconds window_start,
                               MicroSeconds window_end, int top_n = 12,
                               Source source = Source::kAuto);

  // ASCII rendering (unit table + top-ops table).
  std::string Render() const;
};

// Collapses digit runs in a kernel label so per-layer/per-size variants
// aggregate: "attn:L17" -> "attn:L#", "q:npu-seq256" -> "q:npu-seq#".
std::string CanonicalizeKernelLabel(const std::string& label);

}  // namespace heterollm::core

#endif  // SRC_CORE_EXECUTION_REPORT_H_
