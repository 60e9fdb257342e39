// Chrome-trace (about://tracing / Perfetto) export of the simulated kernel
// timeline. Each finished kernel becomes a complete event on its unit's
// track, so GPU/NPU overlap, queue stalls and sync gaps are visible at a
// glance — the practical way to debug a partition plan. Both functions
// need the timeline: call `SocSimulator::RecordTimeline()` before the
// first kernel is submitted.

#ifndef SRC_SIM_TRACE_H_
#define SRC_SIM_TRACE_H_

#include <ostream>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/sim/soc_simulator.h"

namespace heterollm::sim {

struct KernelRecord {
  std::string label;
  UnitId unit = -1;
  std::string unit_name;
  MicroSeconds start = 0;
  MicroSeconds end = 0;
  Bytes bytes = 0;
  Flops flops = 0;
};

// All kernels resolved as finished so far, in submission order.
std::vector<KernelRecord> CollectFinishedKernels(const SocSimulator& soc);

// Writes the finished-kernel timeline as a Chrome trace-event JSON array.
// Timestamps are simulated µs; one tid per execution unit.
void WriteChromeTrace(const SocSimulator& soc, std::ostream& os);

}  // namespace heterollm::sim

#endif  // SRC_SIM_TRACE_H_
