// Discrete-event simulator for a heterogeneous mobile SoC.
//
// The simulator models a set of execution units (CPU, GPU, NPU) that each
// execute kernels serially from a FIFO queue, all contending for one shared
// memory system (`MemorySystem`). A kernel is described by a contention-free
// compute duration and a DRAM byte count; it finishes when both the compute
// phase and the memory stream complete (roofline semantics). Completion times
// therefore depend on which other units are streaming at the same moment —
// the effect the paper's decoding-phase partitioning exploits.
//
// Time advances lazily: `Submit` only enqueues; `WaitForKernel` /
// `WaitForUnitIdle` / `DrainAll` run the event loop forward just far enough
// to answer. The control-plane (engine) interleaves its own simulated CPU
// time with these waits, mirroring how the real runtime's host thread
// schedules GPU/NPU work.
//
// Dynamic conditions (off by default, bit-exact when off): an optional
// per-unit thermal model (`ThermalModel`) integrates dissipated power into a
// temperature and applies DVFS throttle steps, and an optional scripted
// `ConditionEvent` trace injects background-app bandwidth contention, forced
// clock caps and budget changes at fixed times. Each unit carries an
// *effective frequency factor* (thermal × forced cap) that the HAL cost
// models sample at submission time, and a monotonically increasing
// *device-state epoch* lets engines detect that cached plans / compiled
// schedules were built against stale device performance.
//
// Memory: what the simulator keeps does not grow with run length. A queued
// or running kernel lives in its unit's queue or running slot. When it
// retires, its busy time, bytes and flops fold into a ledger of totals per
// (label, unit), and its start/end go to a fixed-size store of recent
// retirements that answers handle queries for the kernels callers still
// wait on. The per-kernel timeline (one fixed-size record per kernel, for
// trace export and kernel digests) is kept only after `RecordTimeline()`.
// Labels are stored once per distinct string.

#ifndef SRC_SIM_SOC_SIMULATOR_H_
#define SRC_SIM_SOC_SIMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/sim/memory_system.h"
#include "src/sim/power_model.h"
#include "src/sim/thermal_model.h"

namespace heterollm::sim {

using UnitId = int;
using KernelHandle = int64_t;
inline constexpr KernelHandle kInvalidKernel = -1;

// Static description of an execution unit.
struct UnitSpec {
  std::string name;
  // Peak DRAM bandwidth this unit's memory pipeline can absorb, bytes/µs.
  double bandwidth_cap_bytes_per_us = 45e3;
  PowerRating power;
};

// One unit of work on a device queue.
struct KernelDesc {
  std::string label;
  // Contention-free compute duration (already includes the device's
  // shape-dependent efficiency — computed by the HAL cost models).
  MicroSeconds compute_time = 0;
  // DRAM traffic streamed during execution.
  Bytes memory_bytes = 0;
  // Fixed device-side latency before compute/memory begin (launch, queue pop,
  // warp ramp-up, ...).
  MicroSeconds launch_overhead = 0;
  // Multiplier on the unit's active power while this kernel runs (DVFS
  // operating-point modelling; 1.0 = the unit's rated active power).
  double power_scale = 1.0;
  // Arithmetic work the kernel performs (the *executed* count — padded on
  // the NPU). Reporting only: per-op TFLOPS in the execution report.
  Flops flops = 0;
  // Keeps this kernel's start/end queryable for the simulator's lifetime
  // even without the timeline (one small entry per flagged kernel), for
  // callers that read a completion long after it retired.
  bool keep_times = false;
};

// Totals of retired kernels: busy time, kernel count, DRAM bytes, flops.
struct RetiredTotals {
  MicroSeconds busy = 0;
  int64_t count = 0;
  Bytes bytes = 0;
  Flops flops = 0;
};

inline void AddTotals(const RetiredTotals& from, RetiredTotals* into) {
  into->busy += from.busy;
  into->count += from.count;
  into->bytes += from.bytes;
  into->flops += from.flops;
}

class SocSimulator {
 public:
  explicit SocSimulator(const MemoryConfig& mem_config);

  SocSimulator(const SocSimulator&) = delete;
  SocSimulator& operator=(const SocSimulator&) = delete;

  // Registers an execution unit; returns its id.
  UnitId AddUnit(const UnitSpec& spec);

  // Keeps the per-kernel timeline for the whole run: `VisitFinishedKernels`
  // (trace export, kernel digests) and reports over windows that cut
  // through a kernel need it, and every handle stays queryable. Must be
  // called before the first Submit.
  void RecordTimeline();
  bool records_timeline() const { return timeline_; }

  // Enqueues `desc` on `unit`, visible to the device no earlier than
  // `submit_time` (which must be >= the currently resolved time).
  KernelHandle Submit(UnitId unit, KernelDesc desc, MicroSeconds submit_time);

  // Advances simulation until `k` finishes; returns its completion time.
  MicroSeconds WaitForKernel(KernelHandle k);

  // Advances until everything submitted to `unit` so far has finished.
  // Returns the time the unit went idle (== now() afterwards only if the
  // unit finished last).
  MicroSeconds WaitForUnitIdle(UnitId unit);

  // Advances until all queues are empty; returns the final time.
  MicroSeconds DrainAll();

  // Advances the clock to `t` with no kernel-completion goal: integrates
  // thermal cooling over idle gaps and applies scripted condition events
  // falling in (now, t]. Queued/running kernels still execute normally.
  // Returns the resolved time (>= t up to the event-loop epsilon).
  MicroSeconds AdvanceIdleTo(MicroSeconds t);

  // Handle queries. They answer for every kernel still in flight, for the
  // last `kRecentRetirements` handles submitted, for kernels submitted with
  // `keep_times`, and for every kernel when the timeline is recorded. A
  // query for an older retired kernel HCHECK-fails.

  // True once `k` has been resolved as finished.
  bool IsFinished(KernelHandle k) const;

  // Completion time of a finished kernel (HCHECKs that it is finished).
  MicroSeconds CompletionTime(KernelHandle k) const;

  // Start time of a started kernel (HCHECKs that it has started).
  MicroSeconds StartTime(KernelHandle k) const;

  // True if `unit` has a running kernel or a non-empty queue (at the
  // currently resolved time) — used to model the extra submission latency an
  // empty GPU queue incurs.
  bool UnitHasWork(UnitId unit) const;

  // Cumulative busy time of `unit` (only counts resolved kernels).
  MicroSeconds UnitBusyTime(UnitId unit) const;

  // Visits every kernel resolved as finished, in submission order, as
  // visitor(label, unit, start, end, memory bytes, flops). Needs the
  // timeline (HCHECKs `RecordTimeline()` was called). Labels are interned:
  // every kernel submitted with an equal label reaches the visitor as the
  // same `const std::string&`, stable for the simulator's lifetime, so
  // callers can do per-label work once per distinct label, keyed on its
  // address.
  template <typename Visitor>
  void VisitFinishedKernels(Visitor&& visitor) const;

  // Visits the retirement ledger's totals over [start, end] as
  // visitor(label, unit, const RetiredTotals&), one call per (label, unit)
  // with a kernel in the window, labels interned as above, and sets
  // `*unit_totals` (when given) to each unit's totals, summed in retirement
  // order. Kernels of zero duration are not counted. Answers only when
  // every kernel that retired inside or across the window ran wholly inside
  // it, which holds for a window whose start and end each follow a
  // `DrainAll`; otherwise visits nothing and returns false (the window then
  // needs the timeline).
  template <typename Visitor>
  bool VisitRetiredTotals(MicroSeconds start, MicroSeconds end,
                          Visitor&& visitor,
                          std::vector<RetiredTotals>* unit_totals =
                              nullptr) const;

  // --- dynamic conditions --------------------------------------------------

  // Attaches a thermal/DVFS model (no-op config when `!config.enabled`).
  // Must be called before any kernel is submitted.
  void EnableThermal(const ThermalConfig& config);

  // Installs a scripted condition trace. Events are applied as simulated
  // time passes them; events at or before now() apply immediately (so a
  // trace installed at t=0 pre-conditions the platform).
  void SetConditionTrace(std::vector<ConditionEvent> events);

  // True when a thermal model or a condition trace is attached.
  bool dynamic_conditions() const {
    return thermal_ != nullptr || next_event_ < trace_.size();
  }

  // Effective frequency factor of `unit` (thermal throttle × forced cap);
  // exactly 1.0 when no dynamic condition has engaged.
  double UnitFrequencyFactor(UnitId unit) const;

  // Current die temperature of `unit` (°C); ambient when thermal is off.
  double UnitTemperature(UnitId unit) const;

  // Monotonic counter bumped whenever any unit's effective performance (or a
  // plan-relevant shared resource: bandwidth, power budget) changes.
  uint64_t device_state_epoch() const { return epoch_; }

  // The global epoch value at which `unit` last changed state (0 = never).
  uint64_t unit_state_epoch(UnitId unit) const;

  // Externally forced parallel-power budget from the condition trace, watts
  // (0 = none forced).
  double forced_power_budget_watts() const { return power_budget_watts_; }

  // Scripted scale on the serving scheduler's KV budget (1.0 = full).
  double kv_budget_scale() const { return kv_budget_scale_; }

  // Earliest not-yet-applied condition event time; +inf when none pending.
  MicroSeconds NextConditionEventTime() const;

  // Number of kernels submitted so far (handles are 0 .. kernel_count()-1).
  int64_t kernel_count() const { return submitted_; }

  // Bytes the simulator retains about kernels it has run: the store of
  // recent retirements, the ledger cells, `keep_times` entries, the
  // interned label table (each distinct label's string object and
  // characters) and, only when the timeline is recorded, one log record per
  // submitted kernel. In-flight state is not counted; it is bounded by the
  // queued and running kernels.
  size_t history_bytes() const;

  MicroSeconds now() const { return now_; }
  MemorySystem& memory() { return memory_; }
  const MemorySystem& memory() const { return memory_; }
  PowerMeter& power() { return power_; }
  const PowerMeter& power() const { return power_; }
  const ThermalModel* thermal() const { return thermal_.get(); }
  int unit_count() const { return static_cast<int>(units_.size()); }
  const UnitSpec& unit_spec(UnitId unit) const;

 private:
  enum class KernelState : uint8_t { kPending, kRunning, kFinished };

  // One kernel's timeline entry, with the label interned. Kept only while
  // the timeline is recorded: written at Submit, stamped with the start and
  // end times as the kernel runs.
  struct LogRecord {
    MicroSeconds start = 0;  // valid once running
    MicroSeconds end = 0;    // valid once finished
    Bytes memory_bytes = 0;
    Flops flops = 0;
    uint32_t label = 0;  // index into labels_
    int16_t unit = -1;
    KernelState state = KernelState::kPending;
  };

  // Start and end of a retired kernel, in the recent-retirement store or
  // the `keep_times` table.
  struct RetiredTimes {
    KernelHandle handle = kInvalidKernel;
    MicroSeconds start = 0;
    MicroSeconds end = 0;
  };

 public:
  // Size of one kernel's timeline record.
  static constexpr size_t kLogRecordBytes = sizeof(LogRecord);
  // Handle window the recent-retirement store covers: a retired kernel is
  // queryable while fewer than this many kernels were submitted after it.
  // Far above the kernels of one engine pass, the span a host wait reaches
  // back over.
  static constexpr int64_t kRecentRetirements = int64_t{1} << 12;
  // Ledger segments kept; older ones fold into the oldest kept.
  static constexpr size_t kLedgerSegments = 8;

 private:
  // The timeline grows in fixed-size chunks, so appending never moves a
  // record.
  static constexpr int kLogChunkShift = 12;
  static constexpr int64_t kLogChunkSize = int64_t{1} << kLogChunkShift;

  // In-flight state of a queued kernel; dropped when it starts.
  struct QueuedKernel {
    KernelHandle handle = kInvalidKernel;
    MicroSeconds submit_time = 0;
    MicroSeconds compute_time = 0;
    MicroSeconds launch_overhead = 0;
    double power_scale = 1.0;
    Bytes memory_bytes = 0;
    Flops flops = 0;
    uint32_t label = 0;
    bool keep_times = false;
  };

  // In-flight state of a unit's running kernel; dropped when it retires.
  struct RunningKernel {
    KernelHandle handle = kInvalidKernel;  // kInvalidKernel when idle
    MicroSeconds start = 0;
    MicroSeconds compute_end = 0;
    double power_scale = 1.0;
    Bytes memory_bytes = 0;
    Flops flops = 0;
    uint32_t label = 0;
    StreamId stream = -1;  // -1 when no memory traffic / closed
    bool stream_done = false;
    bool keep_times = false;
  };

  struct Unit {
    UnitSpec spec;
    std::deque<QueuedKernel> queue;  // sorted by submit time, stable
    RunningKernel running;
    int power_index = -1;
    MicroSeconds busy_time = 0;
    MicroSeconds last_completion = 0;
    // Dynamic-conditions state. Both factors are exactly 1.0 until a
    // throttle step / condition event engages.
    int thermal_index = -1;
    double thermal_factor = 1.0;
    double forced_cap = 1.0;
    uint64_t epoch = 0;  // global epoch at the unit's last state change

    bool has_work() const {
      return running.handle != kInvalidKernel || !queue.empty();
    }
  };

  // Retirement totals since one quiesce point (a DrainAll that found work
  // retired since the previous one), up to the next.
  struct LedgerSegment {
    MicroSeconds begin = 0;
    // Earliest start among the kernels folded in (+inf while none is);
    // every one of them started at or after `begin`.
    MicroSeconds first_start = std::numeric_limits<MicroSeconds>::infinity();
    std::vector<RetiredTotals> units;               // [unit]
    std::vector<std::vector<RetiredTotals>> cells;  // [unit][label]
  };

  // What the simulator can still tell about one handle.
  struct KernelTimes {
    KernelState state = KernelState::kPending;
    MicroSeconds start = 0;  // valid once running
    MicroSeconds end = 0;    // valid once finished
  };

  // The state and times of `k`; HCHECKs that `k` was handed out by Submit
  // and is still answerable.
  KernelTimes Lookup(KernelHandle k) const;

  // The timeline record of `k` (timeline recorded, `k` submitted).
  LogRecord& record(KernelHandle k);
  const LogRecord& record(KernelHandle k) const;

  // Interns `label`, returning its index into labels_.
  uint32_t InternLabel(std::string label);

  // Index of the oldest ledger segment a report over [start, end] sums
  // from; -1 when the ledger cannot answer it, ledger_.size() when the
  // window holds no retired kernel.
  int LedgerSegmentFor(MicroSeconds start, MicroSeconds end) const;

  // Folds the kernel running on `unit`, finishing now, into the ledger, the
  // recent-retirement store and (when recorded) the timeline.
  void Retire(UnitId unit);

  // Moves queue heads whose submit time has arrived onto idle units.
  void StartEligibleKernels();

  // Runs the event loop until `done()` returns true. HCHECK-fails on
  // deadlock (no event can advance the predicate).
  template <typename Done>
  void RunUntil(Done done);

  // Completes any running kernel whose compute and memory phases are both
  // done at the current time.
  void FinishCompletedKernels();

  // Integrates unit temperatures over [now_, now_ + dt] at the units'
  // current (piecewise-constant) dissipation.
  void IntegrateThermal(MicroSeconds dt);

  // Re-evaluates throttle factors after time advanced; bumps epochs on
  // change.
  void UpdateThrottleState();

  // Applies every trace event with time <= now_.
  void ApplyDueConditionEvents();
  void ApplyConditionEvent(const ConditionEvent& event);

  void BumpUnitEpoch(Unit& unit);

  MemorySystem memory_;
  PowerMeter power_;
  MicroSeconds now_ = 0;
  std::vector<Unit> units_;
  int64_t submitted_ = 0;

  // Retirement ledger, oldest segment first; never empty. Segment 0 begins
  // at time 0.
  std::deque<LedgerSegment> ledger_;
  // End of the last kernel of nonzero duration to retire.
  MicroSeconds last_retire_end_ = 0;
  // Recent retirements, entry h % kRecentRetirements for handle h (timeline
  // off only; grows to kRecentRetirements entries).
  std::vector<RetiredTimes> recent_;
  // Retired `keep_times` kernels older than the recent store reaches.
  std::unordered_map<KernelHandle, RetiredTimes> kept_;
  // Handle WaitForKernel is waiting on, and its end once it retires (< 0
  // before).
  KernelHandle watched_ = kInvalidKernel;
  MicroSeconds watched_end_ = -1;

  // Per-kernel timeline, indexed by handle (only when timeline_ is set).
  bool timeline_ = false;
  std::vector<std::unique_ptr<LogRecord[]>> log_chunks_;
  // Interned labels: each distinct label is stored once, as a key of
  // label_ids_ (node-based, so the strings never move); labels_ maps an id
  // back to it.
  std::unordered_map<std::string, uint32_t> label_ids_;
  std::vector<const std::string*> labels_;
  size_t label_bytes_ = 0;

  std::unique_ptr<ThermalModel> thermal_;
  std::vector<ConditionEvent> trace_;
  size_t next_event_ = 0;
  uint64_t epoch_ = 0;
  double power_budget_watts_ = 0;
  double kv_budget_scale_ = 1.0;
  // Target of an in-progress AdvanceIdleTo, meaningful only while
  // idle_advancing_ is set: lets RunUntil make progress with empty queues
  // without tripping the deadlock check.
  MicroSeconds idle_target_ = -1;
  bool idle_advancing_ = false;
};

template <typename Visitor>
void SocSimulator::VisitFinishedKernels(Visitor&& visitor) const {
  HCHECK_MSG(timeline_,
             "the kernel timeline is not recorded: call "
             "SocSimulator::RecordTimeline() before the first Submit");
  for (KernelHandle k = 0; k < submitted_; ++k) {
    const LogRecord& r = log_chunks_[static_cast<size_t>(
        k >> kLogChunkShift)][static_cast<size_t>(k & (kLogChunkSize - 1))];
    if (r.state == KernelState::kFinished) {
      visitor(*labels_[r.label], static_cast<UnitId>(r.unit), r.start, r.end,
              r.memory_bytes, r.flops);
    }
  }
}

template <typename Visitor>
bool SocSimulator::VisitRetiredTotals(
    MicroSeconds start, MicroSeconds end, Visitor&& visitor,
    std::vector<RetiredTotals>* unit_totals) const {
  const int first = LedgerSegmentFor(start, end);
  if (first < 0) {
    return false;
  }
  if (unit_totals != nullptr) {
    unit_totals->assign(units_.size(), RetiredTotals{});
    for (size_t s = static_cast<size_t>(first); s < ledger_.size(); ++s) {
      const LedgerSegment& seg = ledger_[s];
      for (size_t u = 0; u < seg.units.size(); ++u) {
        AddTotals(seg.units[u], &(*unit_totals)[u]);
      }
    }
  }
  for (size_t u = 0; u < units_.size(); ++u) {
    for (size_t label = 0; label < labels_.size(); ++label) {
      RetiredTotals sum;
      for (size_t s = static_cast<size_t>(first); s < ledger_.size(); ++s) {
        const LedgerSegment& seg = ledger_[s];
        if (u >= seg.cells.size() || label >= seg.cells[u].size()) {
          continue;
        }
        AddTotals(seg.cells[u][label], &sum);
      }
      if (sum.count > 0) {
        visitor(*labels_[label], static_cast<UnitId>(u),
                static_cast<const RetiredTotals&>(sum));
      }
    }
  }
  return true;
}

}  // namespace heterollm::sim

#endif  // SRC_SIM_SOC_SIMULATOR_H_
