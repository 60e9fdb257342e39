#include "src/core/execution_report.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <unordered_map>

#include "src/common/strings.h"
#include "src/common/table.h"

namespace heterollm::core {

std::string CanonicalizeKernelLabel(const std::string& label) {
  std::string out;
  out.reserve(label.size());
  bool in_digits = false;
  for (char c : label) {
    if (std::isdigit(static_cast<unsigned char>(c))) {
      if (!in_digits) {
        out += '#';
        in_digits = true;
      }
    } else {
      out += c;
      in_digits = false;
    }
  }
  return out;
}

ExecutionReport ExecutionReport::Build(const Platform& platform,
                                       MicroSeconds window_start,
                                       MicroSeconds window_end, int top_n) {
  HCHECK(window_end >= window_start);
  ExecutionReport report;
  report.window_start = window_start;
  report.window_end = window_end;

  const sim::SocSimulator& soc = platform.soc();
  std::vector<UnitRow> units(static_cast<size_t>(soc.unit_count()));
  for (int u = 0; u < soc.unit_count(); ++u) {
    units[static_cast<size_t>(u)].unit = soc.unit_spec(u).name;
  }
  // Op rows are keyed by (canonical label, unit name). Equal names share a
  // column so the rows come out exactly as a per-name key would give them.
  std::map<std::string, size_t> unit_column;
  std::vector<size_t> column_of_unit;
  for (const UnitRow& row : units) {
    column_of_unit.push_back(
        unit_column.emplace(row.unit, unit_column.size()).first->second);
  }
  const size_t columns = unit_column.size();
  // The simulator passes every kernel with an equal label the same interned
  // string, so the label is canonicalized once per distinct address.
  std::unordered_map<const std::string*, size_t> op_of_label;
  std::map<std::string, size_t> op_index;  // canonical label -> row block
  std::vector<OpRow> op_cells;             // [op_index * columns + column]

  soc.VisitFinishedKernels([&](const std::string& label, sim::UnitId unit,
                               MicroSeconds start, MicroSeconds end,
                               Bytes bytes, Flops flops) {
    const MicroSeconds clipped_start = std::max(start, window_start);
    const MicroSeconds clipped_end = std::min(end, window_end);
    if (clipped_end <= clipped_start) {
      return;
    }
    const MicroSeconds dur = clipped_end - clipped_start;
    // A kernel straddling the window boundary contributes only the clipped
    // slice of its traffic/work, matching its clipped time contribution —
    // otherwise windowed GB/s and TFLOPS overshoot at both window edges.
    const double fraction = end > start ? dur / (end - start) : 1.0;
    const Bytes clipped_bytes = bytes * fraction;
    const Flops clipped_flops = flops * fraction;
    UnitRow& row = units[static_cast<size_t>(unit)];
    row.busy += dur;
    ++row.kernels;
    row.bytes += clipped_bytes;
    row.flops += clipped_flops;

    auto [label_it, new_label] = op_of_label.try_emplace(&label, 0);
    if (new_label) {
      const auto [op_it, new_op] =
          op_index.try_emplace(CanonicalizeKernelLabel(label), op_index.size());
      if (new_op) {
        op_cells.resize(op_index.size() * columns);
      }
      label_it->second = op_it->second;
    }
    OpRow& op = op_cells[label_it->second * columns +
                         column_of_unit[static_cast<size_t>(unit)]];
    op.total += dur;
    ++op.count;
    op.bytes += clipped_bytes;
    op.flops += clipped_flops;
  });

  const MicroSeconds window = report.window();
  for (UnitRow& row : units) {
    row.utilization = window > 0 ? row.busy / window : 0;
  }
  report.units = std::move(units);

  for (const auto& [name, index] : op_index) {
    for (const auto& [unit, column] : unit_column) {
      OpRow& op = op_cells[index * columns + column];
      if (op.count > 0) {
        op.op = name;
        op.unit = unit;
        report.ops.push_back(std::move(op));
      }
    }
  }
  std::sort(report.ops.begin(), report.ops.end(),
            [](const OpRow& a, const OpRow& b) { return a.total > b.total; });
  if (static_cast<int>(report.ops.size()) > top_n) {
    report.ops.resize(static_cast<size_t>(top_n));
  }
  return report;
}

std::string ExecutionReport::Render() const {
  std::string out = StrFormat("window: %.1f ms\n", ToMillis(window()));
  TextTable unit_table(
      {"unit", "busy (ms)", "utilization", "kernels", "GB/s", "TFLOPS"});
  for (const UnitRow& row : units) {
    unit_table.AddRow(
        {row.unit, StrFormat("%.2f", ToMillis(row.busy)),
         StrFormat("%.1f%%", 100.0 * row.utilization),
         std::to_string(row.kernels),
         StrFormat("%.2f", window() > 0 ? ToGBPerSecond(row.bytes, window())
                                        : 0),
         StrFormat("%.3f",
                   window() > 0 ? ToTflops(row.flops, window()) : 0)});
  }
  out += unit_table.Render();

  TextTable op_table(
      {"op", "unit", "total (ms)", "count", "% of window", "GB/s", "TFLOPS"});
  for (const OpRow& op : ops) {
    op_table.AddRow(
        {op.op, op.unit, StrFormat("%.2f", ToMillis(op.total)),
         std::to_string(op.count),
         StrFormat("%.1f%%",
                   window() > 0 ? 100.0 * op.total / window() : 0),
         StrFormat("%.2f", op.total > 0 ? ToGBPerSecond(op.bytes, op.total)
                                        : 0),
         StrFormat("%.3f", op.total > 0 ? ToTflops(op.flops, op.total) : 0)});
  }
  out += op_table.Render();
  return out;
}

}  // namespace heterollm::core
