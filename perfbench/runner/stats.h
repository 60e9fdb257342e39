// Small measurement helpers for the benchmark runner: the host clock,
// process memory, order statistics and the result sheet one run prints.

#ifndef PERFBENCH_RUNNER_STATS_H_
#define PERFBENCH_RUNNER_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// Host wall-clock seconds on a monotonic clock.
double HostSeconds();

// Peak resident set size of this process so far, in MB (2^20 bytes).
double PeakRssMb();
// Current resident set size, in MB.
double CurrentRssMb();

// Nearest-rank percentile, p in [0, 100]; 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}
// The fastest of a run's passes: host figures are reported as the best
// pass, which tracks the code's own cost on a shared machine where other
// tenants slow whole passes down (0 for an empty sample).
inline double Best(std::vector<double> values) {
  return Percentile(std::move(values), 0);
}

// One named number of a run: value, unit and how many samples it
// summarizes (1 for a count or a single measurement).
struct Metric {
  double value = 0;
  std::string unit;
  int64_t samples = 1;
};

// Everything one run reports: metrics, request accounting and the
// correctness checks that failed.
struct Sheet {
  std::map<std::string, Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failed_checks;

  void Set(const std::string& name, double value, const std::string& unit,
           int64_t samples = 1) {
    metrics[name] = Metric{value, unit, samples};
  }
  // Records `what` as a failed check unless `ok`.
  void Check(bool ok, const std::string& what);
};

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_STATS_H_
