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

namespace {

// Folds (label, unit) contributions into unit rows and op rows keyed by
// (canonical label, unit name). Equal unit names share a column so the rows
// come out exactly as a per-name key would give them. Labels arrive
// interned, so each is canonicalized once per distinct address.
class RowBuilder {
 public:
  explicit RowBuilder(const sim::SocSimulator& soc)
      : units_(static_cast<size_t>(soc.unit_count())) {
    for (int u = 0; u < soc.unit_count(); ++u) {
      units_[static_cast<size_t>(u)].unit = soc.unit_spec(u).name;
    }
    for (const ExecutionReport::UnitRow& row : units_) {
      column_of_unit_.push_back(
          unit_column_.emplace(row.unit, unit_column_.size()).first->second);
    }
  }

  void Add(const std::string& label, sim::UnitId unit, MicroSeconds busy,
           int count, Bytes bytes, Flops flops) {
    ExecutionReport::UnitRow& row = units_[static_cast<size_t>(unit)];
    row.busy += busy;
    row.kernels += count;
    row.bytes += bytes;
    row.flops += flops;

    const size_t columns = unit_column_.size();
    auto [label_it, new_label] = op_of_label_.try_emplace(&label, 0);
    if (new_label) {
      const auto [op_it, new_op] = op_index_.try_emplace(
          CanonicalizeKernelLabel(label), op_index_.size());
      if (new_op) {
        op_cells_.resize(op_index_.size() * columns);
      }
      label_it->second = op_it->second;
    }
    ExecutionReport::OpRow& op =
        op_cells_[label_it->second * columns +
                  column_of_unit_[static_cast<size_t>(unit)]];
    op.total += busy;
    op.count += count;
    op.bytes += bytes;
    op.flops += flops;
  }

  // Replaces the unit rows' sums with per-unit totals summed in retirement
  // order: the order a per-kernel pass over one unit adds them in, so the
  // unit rows match the timeline's bit for bit.
  void SetUnitTotals(const std::vector<sim::RetiredTotals>& totals) {
    for (size_t u = 0; u < units_.size(); ++u) {
      units_[u].busy = totals[u].busy;
      units_[u].kernels = static_cast<int>(totals[u].count);
      units_[u].bytes = totals[u].bytes;
      units_[u].flops = totals[u].flops;
    }
  }

  // Fills `report`'s rows: utilization over its window, ops sorted by total
  // time and cut to the `top_n` heaviest.
  void Finish(int top_n, ExecutionReport* report) && {
    const MicroSeconds window = report->window();
    for (ExecutionReport::UnitRow& row : units_) {
      row.utilization = window > 0 ? row.busy / window : 0;
    }
    report->units = std::move(units_);

    const size_t columns = unit_column_.size();
    for (const auto& [name, index] : op_index_) {
      for (const auto& [unit, column] : unit_column_) {
        ExecutionReport::OpRow& op = op_cells_[index * columns + column];
        if (op.count > 0) {
          op.op = name;
          op.unit = unit;
          report->ops.push_back(std::move(op));
        }
      }
    }
    std::sort(report->ops.begin(), report->ops.end(),
              [](const ExecutionReport::OpRow& a,
                 const ExecutionReport::OpRow& b) {
                return a.total > b.total;
              });
    if (static_cast<int>(report->ops.size()) > top_n) {
      report->ops.resize(static_cast<size_t>(top_n));
    }
  }

 private:
  std::vector<ExecutionReport::UnitRow> units_;
  std::map<std::string, size_t> unit_column_;
  std::vector<size_t> column_of_unit_;
  std::unordered_map<const std::string*, size_t> op_of_label_;
  std::map<std::string, size_t> op_index_;  // canonical label -> row block
  std::vector<ExecutionReport::OpRow> op_cells_;  // [op * columns + column]
};

}  // namespace

ExecutionReport ExecutionReport::Build(const Platform& platform,
                                       MicroSeconds window_start,
                                       MicroSeconds window_end, int top_n,
                                       Source source) {
  HCHECK(window_end >= window_start);
  ExecutionReport report;
  report.window_start = window_start;
  report.window_end = window_end;

  const sim::SocSimulator& soc = platform.soc();
  RowBuilder rows(soc);
  std::vector<sim::RetiredTotals> unit_totals;
  const bool from_ledger =
      source != Source::kTimeline &&
      soc.VisitRetiredTotals(
          window_start, window_end,
          [&](const std::string& label, sim::UnitId unit,
              const sim::RetiredTotals& totals) {
            rows.Add(label, unit, totals.busy,
                     static_cast<int>(totals.count), totals.bytes,
                     totals.flops);
          },
          &unit_totals);
  if (from_ledger) {
    rows.SetUnitTotals(unit_totals);
  } else {
    HCHECK_MSG(source != Source::kLedger,
               "the retirement ledger cannot answer a window that cuts "
               "through a kernel");
    HCHECK_MSG(soc.records_timeline(),
               "a report window that cuts through a kernel needs the kernel "
               "timeline: call SocSimulator::RecordTimeline() before the "
               "first Submit");
    soc.VisitFinishedKernels([&](const std::string& label, sim::UnitId unit,
                                 MicroSeconds start, MicroSeconds end,
                                 Bytes bytes, Flops flops) {
      const MicroSeconds clipped_start = std::max(start, window_start);
      const MicroSeconds clipped_end = std::min(end, window_end);
      if (clipped_end <= clipped_start) {
        return;
      }
      const MicroSeconds dur = clipped_end - clipped_start;
      // A kernel straddling the window boundary contributes only the
      // clipped slice of its traffic/work, matching its clipped time
      // contribution — otherwise windowed GB/s and TFLOPS overshoot at both
      // window edges.
      const double fraction = end > start ? dur / (end - start) : 1.0;
      rows.Add(label, unit, dur, 1, bytes * fraction, flops * fraction);
    });
  }
  std::move(rows).Finish(top_n, &report);
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
