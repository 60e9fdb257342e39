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
// Memory: each submitted kernel leaves one fixed-size log record (times,
// bytes, flops, unit, state, interned label id) for the whole run; the state
// only a queued or running kernel needs lives in its unit's queue or running
// slot and is dropped as the kernel moves on. Labels are stored once per
// distinct string.

#ifndef SRC_SIM_SOC_SIMULATOR_H_
#define SRC_SIM_SOC_SIMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
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
};

class SocSimulator {
 public:
  explicit SocSimulator(const MemoryConfig& mem_config);

  SocSimulator(const SocSimulator&) = delete;
  SocSimulator& operator=(const SocSimulator&) = delete;

  // Registers an execution unit; returns its id.
  UnitId AddUnit(const UnitSpec& spec);

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

  // Visits every kernel resolved as finished, in submission order
  // (label, unit, start, end, memory bytes, flops). Used by the trace
  // exporter and the execution report. Labels are interned: every kernel
  // submitted with an equal label reaches the visitor as the same
  // `const std::string&`, stable for the simulator's lifetime, so callers
  // can do per-label work once per distinct label, keyed on its address.
  void VisitFinishedKernels(
      const std::function<void(const std::string&, UnitId, MicroSeconds,
                               MicroSeconds, Bytes, Flops)>& visitor) const;

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
  int64_t kernel_count() const { return log_size_; }

  // Bytes the simulator keeps for the whole run: one log record per
  // submitted kernel plus the interned label table (each distinct label's
  // string object and characters). In-flight state is not counted; it is
  // bounded by the queued and running kernels.
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

  // What the simulator keeps of a kernel for the whole run: its timeline
  // entry, with the label interned. Written at Submit, stamped with the
  // start and end times as the kernel runs.
  struct LogRecord {
    MicroSeconds start = 0;  // valid once running
    MicroSeconds end = 0;    // valid once finished
    Bytes memory_bytes = 0;
    Flops flops = 0;
    uint32_t label = 0;  // index into labels_
    int16_t unit = -1;
    KernelState state = KernelState::kPending;
  };

 public:
  // Size of one kernel's log record; the per-kernel cost of the run history.
  static constexpr size_t kLogRecordBytes = sizeof(LogRecord);

 private:
  // The log grows in fixed-size chunks, so appending never moves a record.
  static constexpr int kLogChunkShift = 12;
  static constexpr int64_t kLogChunkSize = int64_t{1} << kLogChunkShift;

  // In-flight state of a queued kernel; dropped when it starts.
  struct QueuedKernel {
    KernelHandle handle = kInvalidKernel;
    MicroSeconds submit_time = 0;
    MicroSeconds compute_time = 0;
    MicroSeconds launch_overhead = 0;
    double power_scale = 1.0;
  };

  // In-flight state of a unit's running kernel; dropped when it finishes.
  struct RunningKernel {
    KernelHandle handle = kInvalidKernel;  // kInvalidKernel when idle
    MicroSeconds compute_end = 0;
    double power_scale = 1.0;
    StreamId stream = -1;  // -1 when no memory traffic / closed
    bool stream_done = false;
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

  // The log record of `k` (HCHECKs that `k` was handed out by Submit).
  LogRecord& record(KernelHandle k);
  const LogRecord& record(KernelHandle k) const;

  // Interns `label`, returning its index into labels_.
  uint32_t InternLabel(std::string label);

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

  // Kernel log: one record per submitted kernel, indexed by handle.
  std::vector<std::unique_ptr<LogRecord[]>> log_chunks_;
  int64_t log_size_ = 0;
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

}  // namespace heterollm::sim

#endif  // SRC_SIM_SOC_SIMULATOR_H_
