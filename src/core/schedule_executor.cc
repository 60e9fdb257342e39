#include "src/core/schedule_executor.h"

#include <utility>
#include <vector>

#include "src/graph/builder.h"

namespace heterollm::core {

using graph::ScheduleStep;
using graph::StepKind;
using graph::WeightRefLayer;
using graph::WeightRefSite;
using graph::WeightSite;
using tensor::QuantizedTensor;
using tensor::Tensor;

const QuantizedTensor& ScheduleExecutor::Weight(int64_t ref) const {
  const WeightSite site = WeightRefSite(ref);
  if (site == WeightSite::kLmHead) {
    return e_->weights_->lm_head();
  }
  const model::LayerWeights& lw = e_->weights_->layer(WeightRefLayer(ref));
  switch (site) {
    case WeightSite::kWq:
      return lw.wq;
    case WeightSite::kWk:
      return lw.wk;
    case WeightSite::kWv:
      return lw.wv;
    case WeightSite::kWo:
      return lw.wo;
    case WeightSite::kWGate:
      return lw.w_gate;
    case WeightSite::kWUp:
      return lw.w_up;
    case WeightSite::kWDown:
      return lw.w_down;
    default:
      break;
  }
  HCHECK_MSG(false, "weight ref is not a matmul parameter");
  __builtin_unreachable();
}

const Tensor& ScheduleExecutor::Gamma(int64_t ref) const {
  switch (WeightRefSite(ref)) {
    case WeightSite::kAttnNorm:
      return e_->weights_->layer(WeightRefLayer(ref)).attn_norm;
    case WeightSite::kFfnNorm:
      return e_->weights_->layer(WeightRefLayer(ref)).ffn_norm;
    case WeightSite::kFinalNorm:
      return e_->weights_->final_norm();
    default:
      break;
  }
  HCHECK_MSG(false, "weight ref is not a norm gain");
  __builtin_unreachable();
}

ScheduleExecutor::Value ScheduleExecutor::RunAttention(
    const ScheduleStep& step, const Batch& batch, Value& q, Value& k,
    Value& v, int64_t past) {
  // The cache append itself is a strided device-side write folded into the
  // projection kernels; attention's kernel dependencies flow through q/k/v.
  if (batch.slots.size() == 1) {
    batch.slots[0].cache->AppendLayer(step.layer, k.tensor, v.tensor);
  } else {
    int64_t r = 0;
    for (const Batch::Slot& slot : batch.slots) {
      slot.cache->AppendLayer(step.layer,
                              k.tensor.SliceRows(r, r + slot.rows),
                              v.tensor.SliceRows(r, r + slot.rows));
      r += slot.rows;
    }
  }
  // Attention (on the vector backend) must see k/v results.
  hal::Device& vec_dev = e_->platform_->device(e_->vector_backend());
  e_->EnsureVisible(k, vec_dev);
  e_->EnsureVisible(v, vec_dev);
  return e_->Attention(q, step.layer, batch.slots, past);
}

PhaseStats ScheduleExecutor::Run(const graph::CompiledSchedule& sched,
                                 const Batch& batch) {
  EngineBase& e = *e_;
  const MicroSeconds start = e.host_now_;
  e.graph_gen_accum_ = 0;
  e.BeginPassSync();

  std::vector<Value> slots(sched.num_slots);
  slots[sched.input_slot].tensor = batch.input;
  // Slot 0's KV length at the current layer's start; RoPE/attention offsets
  // replay against this snapshot (the appends below it advance the cache).
  // In a multi-slot batch the sessions sit at different positions: slot 0's
  // offset prices the RoPE kernel (cost is position-independent) while
  // appends and attention use each slot's own cache.
  int64_t past = 0;

  // The decoder body, then the logits tail.
  for (const std::vector<ScheduleStep>* steps :
       {sched.body.get(), &sched.tail}) {
    for (const ScheduleStep& step : *steps) {
      switch (step.kind) {
        case StepKind::kBeginLayer:
          past = batch.slots[0].cache->length();
          break;
        case StepKind::kMatmul: {
          std::vector<const QuantizedTensor*> parts;
          parts.reserve(step.weight_refs.size());
          for (int64_t ref : step.weight_refs) {
            parts.push_back(&Weight(ref));
          }
          slots[step.out] = e.ExecuteMatmulPlanned(
              step.site, step.op_id, step.plan, slots[step.a], parts,
              sched.phase);
          break;
        }
        case StepKind::kRmsNorm:
          slots[step.out] = e.RmsNorm(slots[step.a], Gamma(step.gamma_ref));
          break;
        case StepKind::kRope:
          slots[step.out] = e.Rope(slots[step.a], past);
          break;
        case StepKind::kAttention:
          slots[step.out] = RunAttention(step, batch, slots[step.a],
                                         slots[step.b], slots[step.c], past);
          break;
        case StepKind::kSilu:
        case StepKind::kMul:
          HCHECK_MSG(false,
                     "unfused SiLU/Mul step: engine schedules are compiled "
                     "after FuseSiluMul and run the SwiGlu kernel");
          break;
        case StepKind::kAdd:
          slots[step.out] = e.Add(slots[step.a], slots[step.b]);
          break;
        case StepKind::kSwiGlu:
          slots[step.out] = e.SwiGlu(slots[step.a], slots[step.b]);
          break;
        case StepKind::kSliceCols: {
          // Zero-cost column view of a fused result; disjoint ranges of one
          // unified buffer. Each view carries the producer's deps (the sync
          // bookkeeping dedups the shared kernels).
          Value& src = slots[step.a];
          Value view;
          view.tensor = src.tensor.SliceCols(step.begin, step.end);
          view.deps = src.deps;
          slots[step.out] = std::move(view);
          break;
        }
        case StepKind::kLastRows: {
          Value& src = slots[step.a];
          Value view;
          view.tensor =
              step.begin == 0 && step.end == src.tensor.shape().rows()
                  ? src.tensor
                  : src.tensor.SliceRows(step.begin, step.end);
          view.deps = src.deps;
          slots[step.out] = std::move(view);
          break;
        }
      }
    }
  }

  Value& hidden = slots[sched.hidden_slot];
  Value& logits = slots[sched.logits_slot];
  e.EnsureHost(logits);
  e.EnsureHost(hidden);

  PhaseStats stats;
  stats.latency = e.host_now_ - start;
  stats.graph_gen_time = e.graph_gen_accum_;
  stats.tokens = static_cast<int>(batch.input.shape().rows());
  stats.hidden = std::move(hidden.tensor);
  stats.logits = std::move(logits.tensor);
  return stats;
}

}  // namespace heterollm::core
