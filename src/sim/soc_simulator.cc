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
    : memory_(mem_config) {
  ledger_.emplace_back();
}

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
  HCHECK_MSG(submitted_ == 0,
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
  const KernelHandle handle = submitted_++;
  const uint32_t label = InternLabel(std::move(desc.label));
  if (timeline_) {
    if ((handle & (kLogChunkSize - 1)) == 0) {
      log_chunks_.push_back(
          std::make_unique<LogRecord[]>(static_cast<size_t>(kLogChunkSize)));
    }
    LogRecord& r = record(handle);
    r.memory_bytes = desc.memory_bytes;
    r.flops = desc.flops;
    r.label = label;
    r.unit = static_cast<int16_t>(unit);
  } else if (recent_.size() < static_cast<size_t>(kRecentRetirements)) {
    recent_.emplace_back();
  }

  QueuedKernel queued;
  queued.handle = handle;
  queued.submit_time = std::max(submit_time, now_);
  queued.compute_time = desc.compute_time;
  queued.launch_overhead = desc.launch_overhead;
  queued.power_scale = desc.power_scale;
  queued.memory_bytes = desc.memory_bytes;
  queued.flops = desc.flops;
  queued.label = label;
  queued.keep_times = desc.keep_times;
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

void SocSimulator::RecordTimeline() {
  HCHECK_MSG(submitted_ == 0,
             "RecordTimeline must be called before any kernel is submitted");
  timeline_ = true;
}

size_t SocSimulator::history_bytes() const {
  size_t bytes = label_bytes_ + recent_.size() * sizeof(RetiredTimes) +
                 kept_.size() * sizeof(RetiredTimes);
  for (const LedgerSegment& seg : ledger_) {
    bytes += seg.units.size() * sizeof(RetiredTotals);
    for (const std::vector<RetiredTotals>& cells : seg.cells) {
      bytes += cells.size() * sizeof(RetiredTotals);
    }
  }
  if (timeline_) {
    bytes += static_cast<size_t>(submitted_) * kLogRecordBytes;
  }
  return bytes;
}

SocSimulator::LogRecord& SocSimulator::record(KernelHandle k) {
  HCHECK(timeline_ && k >= 0 && k < submitted_);
  return log_chunks_[static_cast<size_t>(k >> kLogChunkShift)]
                    [static_cast<size_t>(k & (kLogChunkSize - 1))];
}

const SocSimulator::LogRecord& SocSimulator::record(KernelHandle k) const {
  HCHECK(timeline_ && k >= 0 && k < submitted_);
  return log_chunks_[static_cast<size_t>(k >> kLogChunkShift)]
                    [static_cast<size_t>(k & (kLogChunkSize - 1))];
}

SocSimulator::KernelTimes SocSimulator::Lookup(KernelHandle k) const {
  HCHECK_MSG(k >= 0 && k < submitted_, "unknown kernel handle");
  if (timeline_) {
    const LogRecord& r = record(k);
    return {r.state, r.start, r.end};
  }
  const bool recent = k >= submitted_ - kRecentRetirements;
  if (recent) {
    const RetiredTimes& r =
        recent_[static_cast<size_t>(k & (kRecentRetirements - 1))];
    if (r.handle == k) {
      return {KernelState::kFinished, r.start, r.end};
    }
  } else if (const auto it = kept_.find(k); it != kept_.end()) {
    return {KernelState::kFinished, it->second.start, it->second.end};
  }
  for (const Unit& u : units_) {
    if (u.running.handle == k) {
      return {KernelState::kRunning, u.running.start, 0};
    }
  }
  // A recent handle not retired and not running is queued; an older one
  // must be found in a queue, or it retired out of reach.
  bool queued = recent;
  for (size_t i = 0; !queued && i < units_.size(); ++i) {
    for (const QueuedKernel& q : units_[i].queue) {
      if (q.handle == k) {
        queued = true;
        break;
      }
    }
  }
  HCHECK_MSG(queued,
             "kernel retired too long ago to query: call "
             "SocSimulator::RecordTimeline() before the first Submit, or "
             "submit it with KernelDesc::keep_times");
  return {KernelState::kPending, 0, 0};
}

bool SocSimulator::IsFinished(KernelHandle k) const {
  return Lookup(k).state == KernelState::kFinished;
}

MicroSeconds SocSimulator::CompletionTime(KernelHandle k) const {
  const KernelTimes t = Lookup(k);
  HCHECK_MSG(t.state == KernelState::kFinished, "kernel not finished");
  return t.end;
}

MicroSeconds SocSimulator::StartTime(KernelHandle k) const {
  const KernelTimes t = Lookup(k);
  HCHECK_MSG(t.state != KernelState::kPending, "kernel not started");
  return t.start;
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
      if (timeline_) {
        LogRecord& r = record(queued.handle);
        r.state = KernelState::kRunning;
        r.start = now_;
      }
      RunningKernel& run = unit.running;
      run.handle = queued.handle;
      run.start = now_;
      run.power_scale = queued.power_scale;
      run.memory_bytes = queued.memory_bytes;
      run.flops = queued.flops;
      run.label = queued.label;
      run.keep_times = queued.keep_times;
      MicroSeconds work_begin = now_ + queued.launch_overhead;
      run.compute_end = work_begin + queued.compute_time;
      if (run.memory_bytes > 0) {
        // The stream opens immediately; the launch overhead is folded into
        // the compute deadline (negligible skew at µs scale, avoids a
        // two-phase kernel state machine).
        run.stream = memory_.OpenStream(unit.spec.bandwidth_cap_bytes_per_us,
                                        run.memory_bytes);
        run.stream_done = false;
      } else {
        run.stream = -1;
        run.stream_done = true;
      }
      unit.queue.pop_front();
    }
  }
}

void SocSimulator::Retire(UnitId unit_id) {
  Unit& unit = units_[static_cast<size_t>(unit_id)];
  const RunningKernel& run = unit.running;
  const MicroSeconds busy = now_ - run.start;
  unit.busy_time += busy;
  unit.last_completion = now_;
  power_.AddActive(unit.power_index, busy * run.power_scale);
  if (run.handle == watched_) {
    watched_end_ = now_;
  }

  LedgerSegment& seg = ledger_.back();
  if (busy > 0) {
    const size_t u = static_cast<size_t>(unit_id);
    if (seg.cells.size() <= u) {
      seg.units.resize(u + 1);
      seg.cells.resize(u + 1);
    }
    if (seg.cells[u].size() <= run.label) {
      seg.cells[u].resize(labels_.size());
    }
    const RetiredTotals kernel{busy, 1, run.memory_bytes, run.flops};
    AddTotals(kernel, &seg.units[u]);
    AddTotals(kernel, &seg.cells[u][run.label]);
    seg.first_start = std::min(seg.first_start, run.start);
    last_retire_end_ = now_;
  }

  const RetiredTimes times{run.handle, run.start, now_};
  if (timeline_) {
    LogRecord& r = record(run.handle);
    r.state = KernelState::kFinished;
    r.end = now_;
  } else {
    // Entries of handles that have left the recent window are overwritten
    // by newer ones; a late retirement of such a handle must not clobber
    // its newer slot-mate.
    if (run.handle >= submitted_ - kRecentRetirements) {
      recent_[static_cast<size_t>(run.handle & (kRecentRetirements - 1))] =
          times;
    }
    if (run.keep_times) {
      kept_.emplace(run.handle, times);
    }
  }
  unit.running = RunningKernel{};
}

void SocSimulator::FinishCompletedKernels() {
  for (size_t u = 0; u < units_.size(); ++u) {
    Unit& unit = units_[u];
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
      Retire(static_cast<UnitId>(u));
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
                   labels_[run.label]->c_str(),
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

MicroSeconds SocSimulator::WaitForKernel(KernelHandle k) {
  const KernelTimes t = Lookup(k);
  if (t.state == KernelState::kFinished) {
    return t.end;
  }
  // Retire() stamps the end of the watched kernel, so the wait never has to
  // find it again (it may leave the recent window while it runs).
  watched_ = k;
  watched_end_ = -1;
  RunUntil([&] { return watched_end_ >= 0; });
  watched_ = kInvalidKernel;
  return watched_end_;
}

int SocSimulator::LedgerSegmentFor(MicroSeconds start,
                                   MicroSeconds end) const {
  if (last_retire_end_ > end + kTimeEpsilon) {
    return -1;  // a kernel retired after the window closed
  }
  if (last_retire_end_ <= start) {
    return static_cast<int>(ledger_.size());  // nothing retired inside
  }
  // The newest segment opened at or before `start`; kernels of later
  // segments started after it.
  for (size_t i = ledger_.size(); i-- > 0;) {
    if (ledger_[i].begin <= start + kTimeEpsilon) {
      return ledger_[i].first_start + kTimeEpsilon >= start
                 ? static_cast<int>(i)
                 : -1;
    }
  }
  return -1;
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
  // A quiesce point: open a new ledger segment so a report window starting
  // here sums only what runs after it.
  if (ledger_.back().first_start !=
      std::numeric_limits<MicroSeconds>::infinity()) {
    LedgerSegment seg;
    seg.begin = now_;
    ledger_.push_back(std::move(seg));
    if (ledger_.size() > kLedgerSegments) {
      // Fold the oldest segment into the next, which then begins where it
      // did.
      LedgerSegment& next = ledger_[1];
      const LedgerSegment& oldest = ledger_[0];
      next.begin = oldest.begin;
      next.first_start = std::min(next.first_start, oldest.first_start);
      if (next.cells.size() < oldest.cells.size()) {
        next.units.resize(oldest.units.size());
        next.cells.resize(oldest.cells.size());
      }
      for (size_t u = 0; u < oldest.cells.size(); ++u) {
        AddTotals(oldest.units[u], &next.units[u]);
        std::vector<RetiredTotals>& into = next.cells[u];
        if (into.size() < oldest.cells[u].size()) {
          into.resize(oldest.cells[u].size());
        }
        for (size_t label = 0; label < oldest.cells[u].size(); ++label) {
          AddTotals(oldest.cells[u][label], &into[label]);
        }
      }
      ledger_.pop_front();
    }
  }
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
