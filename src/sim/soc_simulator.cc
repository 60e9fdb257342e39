#include "src/sim/soc_simulator.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <utility>

namespace heterollm::sim {

namespace {
// Comparison slack and minimum forward step. Must stay above the double ULP
// at the largest simulated times (1e-6 µs covers clocks beyond an hour of
// simulated time), otherwise `now + epsilon == now` and the event loop
// cannot make progress.
constexpr double kTimeEpsilon = 1e-6;
}  // namespace

SocSimulator::SocSimulator(const MemoryConfig& mem_config)
    : memory_(mem_config) {}

UnitId SocSimulator::AddUnit(const UnitSpec& spec) {
  HCHECK(spec.bandwidth_cap_bytes_per_us > 0);
  HCHECK_MSG(units_.size() < static_cast<size_t>(
                                 std::numeric_limits<int16_t>::max()),
             "too many execution units");
  Unit unit;
  unit.spec = spec;
  unit.power_index = power_.AddUnit(spec.name, spec.power);
  if (thermal_) {
    unit.thermal_index = thermal_->AddUnit(spec.name);
  }
  units_.push_back(std::move(unit));
  return static_cast<UnitId>(units_.size()) - 1;
}

const UnitSpec& SocSimulator::unit_spec(UnitId unit) const {
  HCHECK(unit >= 0 && unit < unit_count());
  return units_[static_cast<size_t>(unit)].spec;
}

void SocSimulator::EnableThermal(const ThermalConfig& config) {
  HCHECK_MSG(log_size_ == 0,
             "EnableThermal must be called before any kernel is submitted");
  if (!config.enabled) {
    thermal_.reset();
    return;
  }
  thermal_ = std::make_unique<ThermalModel>(config);
  for (Unit& u : units_) {
    u.thermal_index = thermal_->AddUnit(u.spec.name);
  }
}

void SocSimulator::SetConditionTrace(std::vector<ConditionEvent> events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const ConditionEvent& a, const ConditionEvent& b) {
                     return a.time < b.time;
                   });
  trace_ = std::move(events);
  next_event_ = 0;
  ApplyDueConditionEvents();
}

double SocSimulator::UnitFrequencyFactor(UnitId unit) const {
  HCHECK(unit >= 0 && unit < unit_count());
  const Unit& u = units_[static_cast<size_t>(unit)];
  return u.thermal_factor * u.forced_cap;
}

double SocSimulator::UnitTemperature(UnitId unit) const {
  HCHECK(unit >= 0 && unit < unit_count());
  const Unit& u = units_[static_cast<size_t>(unit)];
  if (thermal_ == nullptr || u.thermal_index < 0) {
    return 25.0;  // nominal ambient when the thermal model is off
  }
  return thermal_->Temperature(u.thermal_index);
}

uint64_t SocSimulator::unit_state_epoch(UnitId unit) const {
  HCHECK(unit >= 0 && unit < unit_count());
  return units_[static_cast<size_t>(unit)].epoch;
}

MicroSeconds SocSimulator::NextConditionEventTime() const {
  if (next_event_ >= trace_.size()) {
    return std::numeric_limits<MicroSeconds>::infinity();
  }
  return trace_[next_event_].time;
}

KernelHandle SocSimulator::Submit(UnitId unit, KernelDesc desc,
                                  MicroSeconds submit_time) {
  HCHECK(unit >= 0 && unit < unit_count());
  HCHECK_MSG(submit_time >= now_ - kTimeEpsilon,
             "kernel submitted in the resolved past");
  HCHECK(desc.compute_time >= 0 && desc.memory_bytes >= 0 &&
         desc.launch_overhead >= 0);
  const KernelHandle handle = log_size_;
  if ((handle & (kLogChunkSize - 1)) == 0) {
    log_chunks_.push_back(
        std::make_unique<LogRecord[]>(static_cast<size_t>(kLogChunkSize)));
  }
  ++log_size_;
  LogRecord& r = record(handle);
  r.memory_bytes = desc.memory_bytes;
  r.flops = desc.flops;
  r.label = InternLabel(std::move(desc.label));
  r.unit = static_cast<int16_t>(unit);

  QueuedKernel queued;
  queued.handle = handle;
  queued.submit_time = std::max(submit_time, now_);
  queued.compute_time = desc.compute_time;
  queued.launch_overhead = desc.launch_overhead;
  queued.power_scale = desc.power_scale;
  // The device executes commands in arrival-time order: a submission with an
  // earlier timestamp (e.g. the control plane enqueueing ahead of a
  // pre-scheduled frame) runs first, stable for equal times.
  auto& queue = units_[static_cast<size_t>(unit)].queue;
  auto pos = queue.end();
  while (pos != queue.begin() && (pos - 1)->submit_time > queued.submit_time) {
    --pos;
  }
  queue.insert(pos, queued);
  return handle;
}

uint32_t SocSimulator::InternLabel(std::string label) {
  const auto [it, inserted] = label_ids_.try_emplace(
      std::move(label), static_cast<uint32_t>(labels_.size()));
  if (inserted) {
    HCHECK(labels_.size() < std::numeric_limits<uint32_t>::max());
    labels_.push_back(&it->first);
    label_bytes_ += sizeof(std::string) + it->first.size();
  }
  return it->second;
}

size_t SocSimulator::history_bytes() const {
  return static_cast<size_t>(log_size_) * kLogRecordBytes + label_bytes_;
}

SocSimulator::LogRecord& SocSimulator::record(KernelHandle k) {
  HCHECK(k >= 0 && k < log_size_);
  return log_chunks_[static_cast<size_t>(k >> kLogChunkShift)]
                    [static_cast<size_t>(k & (kLogChunkSize - 1))];
}

const SocSimulator::LogRecord& SocSimulator::record(KernelHandle k) const {
  HCHECK(k >= 0 && k < log_size_);
  return log_chunks_[static_cast<size_t>(k >> kLogChunkShift)]
                    [static_cast<size_t>(k & (kLogChunkSize - 1))];
}

bool SocSimulator::IsFinished(KernelHandle k) const {
  return record(k).state == KernelState::kFinished;
}

MicroSeconds SocSimulator::CompletionTime(KernelHandle k) const {
  const LogRecord& r = record(k);
  HCHECK_MSG(r.state == KernelState::kFinished, "kernel not finished");
  return r.end;
}

MicroSeconds SocSimulator::StartTime(KernelHandle k) const {
  const LogRecord& r = record(k);
  HCHECK_MSG(r.state != KernelState::kPending, "kernel not started");
  return r.start;
}

bool SocSimulator::UnitHasWork(UnitId unit) const {
  HCHECK(unit >= 0 && unit < unit_count());
  return units_[static_cast<size_t>(unit)].has_work();
}

MicroSeconds SocSimulator::UnitBusyTime(UnitId unit) const {
  HCHECK(unit >= 0 && unit < unit_count());
  return units_[static_cast<size_t>(unit)].busy_time;
}

void SocSimulator::StartEligibleKernels() {
  for (auto& unit : units_) {
    while (unit.running.handle == kInvalidKernel && !unit.queue.empty()) {
      const QueuedKernel& queued = unit.queue.front();
      if (queued.submit_time > now_ + kTimeEpsilon) {
        break;
      }
      LogRecord& r = record(queued.handle);
      r.state = KernelState::kRunning;
      r.start = now_;
      RunningKernel& run = unit.running;
      run.handle = queued.handle;
      run.power_scale = queued.power_scale;
      MicroSeconds work_begin = now_ + queued.launch_overhead;
      run.compute_end = work_begin + queued.compute_time;
      if (r.memory_bytes > 0) {
        // The stream opens immediately; the launch overhead is folded into
        // the compute deadline (negligible skew at µs scale, avoids a
        // two-phase kernel state machine).
        run.stream = memory_.OpenStream(unit.spec.bandwidth_cap_bytes_per_us,
                                        r.memory_bytes);
        run.stream_done = false;
      } else {
        run.stream = -1;
        run.stream_done = true;
      }
      unit.queue.pop_front();
    }
  }
}

void SocSimulator::FinishCompletedKernels() {
  for (auto& unit : units_) {
    RunningKernel& run = unit.running;
    if (run.handle == kInvalidKernel) {
      continue;
    }
    if (!run.stream_done && memory_.IsDone(run.stream)) {
      memory_.CloseStream(run.stream);
      run.stream = -1;
      run.stream_done = true;
    }
    if (run.stream_done && run.compute_end <= now_ + kTimeEpsilon) {
      LogRecord& r = record(run.handle);
      r.state = KernelState::kFinished;
      r.end = now_;
      MicroSeconds busy = r.end - r.start;
      unit.busy_time += busy;
      unit.last_completion = r.end;
      power_.AddActive(unit.power_index, busy * run.power_scale);
      run = RunningKernel{};
    }
  }
}

void SocSimulator::IntegrateThermal(MicroSeconds dt) {
  if (thermal_ == nullptr || dt <= 0) {
    return;
  }
  // A unit's dissipation is constant between event-loop steps (one kernel
  // runs at a time), so the exact RC update over `dt` loses nothing.
  for (const Unit& u : units_) {
    const PowerRating& rating = power_.rating(u.power_index);
    double watts = rating.idle_watts;
    if (u.running.handle != kInvalidKernel) {
      watts = rating.active_watts * u.running.power_scale;
    }
    thermal_->Integrate(u.thermal_index, watts, dt);
  }
}

void SocSimulator::UpdateThrottleState() {
  if (thermal_ == nullptr) {
    return;
  }
  for (Unit& u : units_) {
    const double factor = thermal_->UpdateFrequencyFactor(u.thermal_index);
    if (factor != u.thermal_factor) {
      u.thermal_factor = factor;
      BumpUnitEpoch(u);
    }
  }
}

void SocSimulator::ApplyDueConditionEvents() {
  while (next_event_ < trace_.size() &&
         trace_[next_event_].time <= now_ + kTimeEpsilon) {
    ApplyConditionEvent(trace_[next_event_]);
    ++next_event_;
  }
}

void SocSimulator::ApplyConditionEvent(const ConditionEvent& event) {
  if (event.frequency_cap >= 0) {
    HCHECK_MSG(event.frequency_cap > 0 && event.frequency_cap <= 1.0,
               "forced frequency cap must lie in (0, 1]");
    bool matched = false;
    for (Unit& u : units_) {
      if (!event.unit.empty() && u.spec.name != event.unit) {
        continue;
      }
      matched = true;
      if (u.forced_cap != event.frequency_cap) {
        u.forced_cap = event.frequency_cap;
        BumpUnitEpoch(u);
      }
    }
    HCHECK_MSG(matched, "condition event names an unknown unit");
  }
  if (event.background_bandwidth_bytes_per_us >= 0 &&
      memory_.background_traffic() != event.background_bandwidth_bytes_per_us) {
    memory_.SetBackgroundTraffic(event.background_bandwidth_bytes_per_us);
    // Shared-resource change: every unit's achievable bandwidth (and thus
    // every cached plan) is stale.
    for (Unit& u : units_) {
      BumpUnitEpoch(u);
    }
  }
  if (event.kv_budget_scale >= 0) {
    HCHECK_MSG(event.kv_budget_scale > 0 && event.kv_budget_scale <= 1.0,
               "kv budget scale must lie in (0, 1]");
    // Polled by the serving scheduler every iteration; no plan depends on
    // it, so no epoch bump.
    kv_budget_scale_ = event.kv_budget_scale;
  }
  if (event.power_budget_watts >= 0 &&
      power_budget_watts_ != event.power_budget_watts) {
    power_budget_watts_ = event.power_budget_watts;
    // The solver prunes parallel candidates against this budget: cached
    // cut decisions are stale on every unit.
    for (Unit& u : units_) {
      BumpUnitEpoch(u);
    }
  }
}

void SocSimulator::BumpUnitEpoch(Unit& unit) {
  ++epoch_;
  unit.epoch = epoch_;
}

template <typename Done>
void SocSimulator::RunUntil(Done done) {
  // Bound the loop to catch scheduling bugs; real workloads stay far below.
  for (int64_t iterations = 0; iterations < (1 << 26); ++iterations) {
    StartEligibleKernels();
    FinishCompletedKernels();
    StartEligibleKernels();
    if (done()) {
      return;
    }

    MicroSeconds next = std::numeric_limits<MicroSeconds>::infinity();
    for (const auto& unit : units_) {
      const RunningKernel& run = unit.running;
      if (run.handle != kInvalidKernel) {
        MicroSeconds est = run.compute_end;
        if (!run.stream_done) {
          est = std::max(est, memory_.EstimateCompletion(run.stream));
        }
        next = std::min(next, est);
      } else if (!unit.queue.empty()) {
        next = std::min(next, unit.queue.front().submit_time);
      }
    }
    // An idle advance supplies its own target, so empty queues are not a
    // deadlock while one is in progress.
    if (idle_advancing_) {
      next = std::min(next, std::max(idle_target_, now_ + kTimeEpsilon));
    }
    HCHECK_MSG(next != std::numeric_limits<MicroSeconds>::infinity(),
               "simulator deadlock: wait cannot be satisfied by queued work");
    // Never step past a pending scripted condition event: it may change
    // throttle factors / bandwidth mid-interval.
    if (next_event_ < trace_.size()) {
      next = std::min(
          next, std::max(trace_[next_event_].time, now_ + kTimeEpsilon));
    }
    // Guarantee forward progress even when the next event is "now".
    next = std::max(next, now_ + kTimeEpsilon);
    IntegrateThermal(next - now_);
    memory_.AdvanceTo(next);
    now_ = next;
    ApplyDueConditionEvents();
    UpdateThrottleState();
  }
  for (const auto& unit : units_) {
    const RunningKernel& run = unit.running;
    if (run.handle != kInvalidKernel) {
      std::fprintf(stderr,
                   "stuck unit=%s kernel=%s compute_end=%.9f stream_done=%d "
                   "now=%.9f\n",
                   unit.spec.name.c_str(),
                   labels_[record(run.handle).label]->c_str(),
                   run.compute_end, run.stream_done ? 1 : 0, now_);
      if (!run.stream_done) {
        std::fprintf(stderr, "  stream est=%.9f rate=%.6f\n",
                     memory_.EstimateCompletion(run.stream),
                     memory_.AllocatedRate(run.stream));
      }
    }
  }
  HCHECK_MSG(false, "simulator exceeded event budget (livelock?)");
}

void SocSimulator::VisitFinishedKernels(
    const std::function<void(const std::string&, UnitId, MicroSeconds,
                             MicroSeconds, Bytes, Flops)>& visitor) const {
  for (KernelHandle k = 0; k < log_size_; ++k) {
    const LogRecord& r = record(k);
    if (r.state == KernelState::kFinished) {
      visitor(*labels_[r.label], r.unit, r.start, r.end, r.memory_bytes,
              r.flops);
    }
  }
}

MicroSeconds SocSimulator::WaitForKernel(KernelHandle k) {
  RunUntil([&] { return IsFinished(k); });
  return CompletionTime(k);
}

MicroSeconds SocSimulator::WaitForUnitIdle(UnitId unit) {
  HCHECK(unit >= 0 && unit < unit_count());
  Unit& u = units_[static_cast<size_t>(unit)];
  RunUntil([&] { return !u.has_work(); });
  return u.last_completion;
}

MicroSeconds SocSimulator::DrainAll() {
  RunUntil([&] {
    for (const auto& unit : units_) {
      if (unit.has_work()) {
        return false;
      }
    }
    return true;
  });
  return now_;
}

MicroSeconds SocSimulator::AdvanceIdleTo(MicroSeconds t) {
  if (t <= now_ + kTimeEpsilon) {
    return now_;
  }
  idle_target_ = t;
  idle_advancing_ = true;
  RunUntil([&] { return now_ + kTimeEpsilon >= t; });
  idle_advancing_ = false;
  return now_;
}

}  // namespace heterollm::sim
