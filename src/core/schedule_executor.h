// Replays a `graph::CompiledSchedule` against the simulated Platform.
//
// The executor is the mechanism half of the compile-and-replay split and
// the only path that runs the decoder stack: the schedule already names
// every kernel, partition plan and static NPU graph, so replay is a flat
// walk over the steps through the engine's own SubmitKernel /
// EnsureVisible / EnsureHost machinery. Batch state the schedule cannot
// bake in (KV-cache lengths, per-slot caches and rows) is resolved per step
// at replay time.

#ifndef SRC_CORE_SCHEDULE_EXECUTOR_H_
#define SRC_CORE_SCHEDULE_EXECUTOR_H_

#include "src/core/engine_base.h"

namespace heterollm::core {

class ScheduleExecutor {
 public:
  explicit ScheduleExecutor(EngineBase* engine) : e_(engine) {
    HCHECK(engine != nullptr);
  }

  // Replays `sched` on `batch` (its input rows and per-slot KV caches).
  PhaseStats Run(const graph::CompiledSchedule& sched, const Batch& batch);

 private:
  using Value = EngineBase::Value;

  // Resolves a matmul weight reference to the engine's parameter tensor.
  const tensor::QuantizedTensor& Weight(int64_t ref) const;
  // Resolves an RmsNorm gain reference.
  const tensor::Tensor& Gamma(int64_t ref) const;

  // Per-slot KV appends + cross-device sync + attention kernel(s) for one
  // layer.
  Value RunAttention(const graph::ScheduleStep& step, const Batch& batch,
                     Value& q, Value& k, Value& v, int64_t past);

  EngineBase* e_;
};

}  // namespace heterollm::core

#endif  // SRC_CORE_SCHEDULE_EXECUTOR_H_
