#include "runner/report.h"

#include <map>

namespace perfbench {

void ReportSimulatedUnits(const heterollm::core::ExecutionReport& report,
                          int64_t tokens, double host_s, Sheet& sheet) {
  int64_t kernels = 0;
  for (const char* unit : {"cpu", "gpu", "npu"}) {
    const heterollm::core::ExecutionReport::UnitRow* row = nullptr;
    for (const auto& r : report.units) {
      if (r.unit == unit) row = &r;
    }
    const std::string prefix = std::string("hal.") + unit;
    sheet.Set(prefix + ".busy_ms", row ? row->busy / 1e3 : 0, "ms");
    sheet.Set(prefix + ".utilization", row ? row->utilization : 0, "ratio");
    sheet.Set(prefix + ".dram_gb", row ? row->bytes / 1e9 : 0, "GB");
    sheet.Set(prefix + ".kernels", row ? row->kernels : 0, "count");
  }
  for (const auto& r : report.units) kernels += r.kernels;
  sheet.Set("sim.kernels", static_cast<double>(kernels), "count");
  sheet.Set("sim.kernels_per_tok",
            static_cast<double>(kernels) / static_cast<double>(tokens),
            "count", tokens);
  sheet.Set("sim.host_us_per_kernel",
            host_s * 1e6 / static_cast<double>(kernels), "us", kernels);
}

void ReportTracing(const std::vector<Tracer>& tracers,
                   const std::vector<double>& untraced_s,
                   const std::vector<double>& traced_s,
                   const std::string& trace_path, Sheet& sheet) {
  sheet.Set("trace.overhead_pct",
            (Best(traced_s) / Best(untraced_s) - 1.0) * 100.0, "%",
            static_cast<int64_t>(traced_s.size()));
  std::map<std::string, std::vector<double>> self;
  for (const Tracer& t : tracers) {
    std::map<std::string, double> layers = t.SelfSecondsByLayer();
    for (const char* layer :
         {"perfbench", "workload", "model", "serve", "task", "core"}) {
      self[layer].push_back(layers[layer]);
    }
  }
  for (const auto& [layer, secs] : self) {
    sheet.Set("self_s." + layer, Median(secs), "s",
              static_cast<int64_t>(secs.size()));
  }
  sheet.Set("trace.spans", static_cast<double>(tracers.front().span_count()),
            "count");
  if (!trace_path.empty()) {
    sheet.Check(tracers.front().WriteChromeJson(trace_path),
                "spans written to " + trace_path);
  }
}

}  // namespace perfbench
