#include "src/core/engine_base.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <utility>

#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/core/schedule_executor.h"
#include "src/graph/builder.h"
#include "src/graph/passes.h"
#include "src/tensor/kernel_config.h"

namespace heterollm::core {

using model::ExecutionMode;
using tensor::QuantizedTensor;
using tensor::Shape;
using tensor::Tensor;

Batch Batch::Deferred(Phase phase, const std::vector<model::KvCache*>& caches,
                      int64_t rows, int64_t hidden) {
  Batch batch;
  batch.phase = phase;
  batch.input = Tensor::Deferred(
      Shape({static_cast<int64_t>(caches.size()) * rows, hidden}),
      tensor::DType::kFp16);
  for (model::KvCache* cache : caches) {
    batch.slots.push_back({cache, rows});
  }
  batch.logits_rows = phase == Phase::kDecode ? batch.input.shape().rows() : 1;
  return batch;
}

Batch Batch::Hybrid(model::KvCache* chunk, int64_t chunk_rows,
                    const std::vector<model::KvCache*>& decode,
                    int64_t decode_rows, int64_t hidden) {
  const int64_t decode_total =
      static_cast<int64_t>(decode.size()) * decode_rows;
  Batch batch;
  batch.phase = Phase::kPrefill;
  batch.input = Tensor::Deferred(Shape({chunk_rows + decode_total, hidden}),
                                 tensor::DType::kFp16);
  batch.slots.push_back({chunk, chunk_rows});
  for (model::KvCache* cache : decode) {
    batch.slots.push_back({cache, decode_rows});
  }
  batch.logits_rows = decode_total + 1;  // the chunk's last row + decode rows
  return batch;
}

EngineBase::EngineBase(Platform* platform,
                       const model::ModelWeights* weights,
                       const EngineOptions& options)
    : platform_(platform), weights_(weights), options_(options) {
  HCHECK(platform != nullptr && weights != nullptr);
  mode_ = weights->mode();
  kv_cache_ = std::make_unique<model::KvCache>(
      weights->config(), options.kv_capacity, mode_);
  // Conditions applied before construction (a t=0 trace entry) are the
  // baseline this engine plans against, not a change to react to.
  seen_epoch_ = platform_->soc().device_state_epoch();
  AcquireWorkspace();
}

void EngineBase::AcquireWorkspace() {
  // One persistent mapped buffer per activation role, sized for the largest
  // standard sequence; reused across every layer and step (§4.2). The map
  // costs are a one-time session setup charge.
  const auto& cfg = weights_->config();
  const int64_t max_seq =
      options_.standard_seq_sizes.empty() ? 1024
                                          : options_.standard_seq_sizes.back();
  const Bytes act_bytes = 2.0 * static_cast<double>(max_seq) *
                          static_cast<double>(std::max(
                              cfg.intermediate, std::max(cfg.hidden, cfg.q_dim())));
  constexpr int kWorkspaceSlots = 8;  // hidden, q, k, v, attn, gate, up, ffn
  for (int i = 0; i < kWorkspaceSlots; ++i) {
    hal::UnifiedMemoryPool::Allocation a = platform_->pool().Acquire(act_bytes);
    host_now_ += a.host_cost;
    workspace_slots_.push_back(a.slot);
  }
}

void EngineBase::ResetSession() { kv_cache_->Reset(); }

void EngineBase::PregenerateNpuGraphs(const std::vector<int64_t>& seq_lens,
                                      int64_t row_align) {
  HCHECK(row_align > 0);
  const auto& cfg = weights_->config();
  hal::NpuGraphCache& cache = platform_->graph_cache();
  struct Site {
    MatmulSite site;
    int64_t n;
    int64_t k;
  };
  std::vector<Site> layer_sites = {
      {MatmulSite::kQ, cfg.hidden, cfg.q_dim()},
      {MatmulSite::kK, cfg.hidden, cfg.kv_dim()},
      {MatmulSite::kV, cfg.hidden, cfg.kv_dim()},
      {MatmulSite::kO, cfg.q_dim(), cfg.hidden},
      {MatmulSite::kGate, cfg.hidden, cfg.intermediate},
      {MatmulSite::kUp, cfg.hidden, cfg.intermediate},
      {MatmulSite::kDown, cfg.intermediate, cfg.hidden},
  };
  if (options_.fuse_qkv) {
    // A fused network executes one QKV graph per layer in place of the
    // separate Wq/Wk/Wv graphs (which stay available for unfused shapes).
    layer_sites.push_back(
        {MatmulSite::kQkv, cfg.hidden, cfg.q_dim() + 2 * cfg.kv_dim()});
  }
  auto prepare_site = [&](int64_t m, int64_t op, int64_t n, int64_t k) {
    cache.Prepare({m, n, k, op});
    // Row-cut slices of the output dimension land on row_align-aligned
    // sub-shapes; pre-compile those too.
    for (int64_t k_cut = row_align; k_cut < k; k_cut += row_align) {
      cache.Prepare({m, n, k_cut, op});
    }
  };
  for (int64_t m : seq_lens) {
    for (int layer = 0; layer < cfg.num_layers; ++layer) {
      for (const Site& s : layer_sites) {
        prepare_site(m, GraphOpId(layer, s.site), s.n, s.k);
      }
    }
    prepare_site(m, GraphOpId(0, MatmulSite::kLmHead), cfg.hidden, cfg.vocab);
  }
}

void EngineBase::BeginPassSync() {
  synced_base_ = platform_->soc().kernel_count();
  synced_kernels_.clear();
}

bool EngineBase::MarkSynced(sim::KernelHandle kernel) {
  HCHECK_MSG(kernel >= synced_base_, "kernel submitted before this pass");
  const size_t bit = static_cast<size_t>(kernel - synced_base_);
  if (bit >= synced_kernels_.size()) {
    synced_kernels_.resize(bit + 1);
  }
  if (synced_kernels_[bit]) {
    return false;
  }
  synced_kernels_[bit] = true;
  return true;
}

void EngineBase::EnsureVisible(Value& v, hal::Device& consumer) {
  std::vector<std::pair<hal::Device*, sim::KernelHandle>> kept;
  std::vector<sim::KernelHandle> to_wait;
  for (auto& [dev, kernel] : v.deps) {
    if (dev == &consumer) {
      kept.emplace_back(dev, kernel);  // FIFO queue order synchronizes
      continue;
    }
    if (MarkSynced(kernel)) {
      to_wait.push_back(kernel);
    }
  }
  host_now_ = platform_->sync().WaitKernels(platform_->soc(), to_wait,
                                            host_now_, sync_mode());
  v.deps = std::move(kept);
}

void EngineBase::EnsureHost(Value& v) {
  std::vector<sim::KernelHandle> to_wait;
  for (auto& [dev, kernel] : v.deps) {
    // A kernel synced before already moved the host clock past its
    // completion, and the clock only moves forward.
    if (MarkSynced(kernel)) {
      to_wait.push_back(kernel);
    }
  }
  host_now_ = platform_->sync().WaitKernels(platform_->soc(), to_wait,
                                            host_now_, sync_mode());
  v.deps.clear();
}

EngineBase::Value EngineBase::SubmitKernel(hal::Device& dev,
                                           sim::KernelDesc desc,
                                           std::vector<Value*> inputs,
                                           Tensor out) {
  for (Value* input : inputs) {
    EnsureVisible(*input, dev);
  }
  // The drained-queue resubmission penalty (GPU-②, 50–100 µs) is a property
  // of driver-level synchronization: the sync call tears the ring down and
  // the next submission re-arms it. Fast sync observes completion through a
  // unified-memory flag without touching the driver, so a momentarily empty
  // queue stays armed and costs only the normal enqueue latency.
  const bool drained = !platform_->soc().UnitHasWork(dev.unit()) &&
                       sync_mode() == hal::SyncMode::kBaseline;
  host_now_ += dev.SubmitOverhead(drained);
  if (dev.backend() == hal::Backend::kGpu) {
    desc.power_scale = options_.gpu_power_scale;
  }
  sim::KernelHandle handle = dev.Submit(desc, host_now_);
  Value v;
  v.tensor = std::move(out);
  v.deps.emplace_back(&dev, handle);
  return v;
}

Tensor EngineBase::MatmulNumeric(
    const Tensor& a, const std::vector<const QuantizedTensor*>& parts,
    int64_t k_begin, int64_t k_end) const {
  bool deferred = mode_ == ExecutionMode::kSimulate || !a.has_data();
  for (const QuantizedTensor* w : parts) {
    deferred = deferred || !w->has_data();
  }
  if (deferred) {
    return Tensor::Deferred(Shape({a.shape().rows(), k_end - k_begin}),
                            tensor::DType::kFp16);
  }
  // Each part contributes the output-feature range it owns within the
  // concatenated weight; output columns are independent, so per-part matmuls
  // concatenated column-wise are bit-identical to one matmul against the
  // concatenated weight.
  std::vector<Tensor> pieces;
  int64_t offset = 0;
  for (const QuantizedTensor* w : parts) {
    const int64_t cols = w->shape().cols();
    const int64_t lo = std::max(k_begin, offset);
    const int64_t hi = std::min(k_end, offset + cols);
    if (lo < hi) {
      if (int_activation_path()) {
        // INT-offload engines really compute through the quantized-activation
        // pipeline, so their (reduced) accuracy is measurable.
        Tensor full = tensor::ops::MatmulInt8(a, *w);
        pieces.push_back(lo == offset && hi == offset + cols
                             ? full
                             : full.SliceCols(lo - offset, hi - offset));
      } else if (lo == offset && hi == offset + cols) {
        pieces.push_back(tensor::ops::MatmulQuant(a, *w));
      } else {
        // Compute only the output-feature slice this backend owns, straight
        // from the weight's int4 codes.
        pieces.push_back(tensor::ops::MatmulQuantCols(a, *w, lo - offset,
                                                      hi - offset));
      }
    }
    offset += cols;
  }
  HCHECK(!pieces.empty());
  return pieces.size() == 1 ? pieces[0] : Tensor::ConcatCols(pieces);
}

hal::Precision EngineBase::MatmulPrecision(Phase phase) const {  // NOLINT
  // Paper footnote 2: the NPU lacks a W4A16 decoding path, so decoding-phase
  // NPU matmuls use the INT pipeline; prefill stays FLOAT.
  return phase == Phase::kDecode ? hal::Precision::kInt8
                                 : hal::Precision::kFp16;
}

EngineBase::Value EngineBase::ExecuteMatmulPlanned(
    MatmulSite site, int64_t op_id, const MatmulPlan& plan, Value& input,
    const std::vector<const QuantizedTensor*>& parts, Phase phase) {
  HCHECK(!parts.empty());
  MatmulShape shape;
  shape.m = input.tensor.shape().rows();
  shape.n = parts[0]->shape().rows();
  shape.k = 0;
  for (const QuantizedTensor* w : parts) {
    shape.k += w->shape().cols();
  }
  shape.precision = hal::Precision::kFp16;

  if (int_activation_path()) {
    // INT-offload datapath: quantize activations and extract outliers on
    // the CPU before every NPU matmul (MLLM-NPU's design).
    hal::Device& cpu_dev = platform_->cpu();
    hal::ElementwiseSpec quant_spec;
    quant_spec.elems = shape.m * shape.n;
    quant_spec.flops_per_elem = 8.0;
    quant_spec.bytes_per_elem = 3.0;
    sim::KernelDesc qdesc = cpu_dev.CostElementwise(quant_spec);
    qdesc.label = StrFormat("%s:act-quant", MatmulSiteName(site));
    input = SubmitKernel(cpu_dev, qdesc, {&input}, input.tensor);
  }

  hal::GpuDevice& gpu = platform_->gpu();
  hal::NpuDevice& npu = platform_->npu();
  hal::NpuGraphCache& cache = platform_->graph_cache();

  auto ensure_graph = [&](int64_t m, int64_t n, int64_t k) {
    hal::NpuGraphKey key{m, n, k, op_id};
    if (graph_policy() == GraphPolicy::kOnline) {
      const MicroSeconds cost = cache.Prepare(key);
      host_now_ += cost;
      graph_gen_accum_ += cost;
    } else {
      HCHECK_MSG(cache.Contains(key),
                 StrFormat("missing NPU graph for [%lld,%lld,%lld] at %s",
                           static_cast<long long>(m),
                           static_cast<long long>(n),
                           static_cast<long long>(k), MatmulSiteName(site)));
    }
  };

  auto npu_spec = [&](int64_t m, int64_t k) {
    MatmulShape s = shape;
    s.m = m;
    s.k = k;
    s.precision = MatmulPrecision(phase);
    return NpuMatmulSpec(s);
  };

  switch (plan.kind) {
    case PartitionKind::kNone: {
      hal::Device& dev = platform_->device(plan.sole_backend);
      Tensor out = MatmulNumeric(input.tensor, parts, 0, shape.k);
      sim::KernelDesc desc;
      if (plan.sole_backend == hal::Backend::kNpu) {
        ensure_graph(shape.m, shape.n, shape.k);
        desc = npu.CostMatmul(npu_spec(shape.m, shape.k));
      } else {
        desc = dev.CostMatmul(MatmulSpecFor(plan.sole_backend, shape));
      }
      desc.label = StrFormat("%s:%s", MatmulSiteName(site),
                             hal::BackendName(plan.sole_backend));
      return SubmitKernel(dev, desc, {&input}, std::move(out));
    }

    case PartitionKind::kRowCut:
    case PartitionKind::kHybridCut: {
      const int64_t k_npu = plan.npu_out_features;
      HCHECK(k_npu > 0 && k_npu <= shape.k);
      const int64_t k_gpu = shape.k - k_npu;
      const int64_t npu_m = plan.kind == PartitionKind::kHybridCut &&
                                    plan.npu_padded_seq > 0
                                ? plan.npu_padded_seq
                                : shape.m;

      // GPU piece first: in the NPU-dominant prefill its execution hides
      // under the NPU kernel (Fig. 11); in decode it primes the GPU queue.
      Value gpu_piece;
      bool has_gpu_piece = k_gpu > 0;
      if (has_gpu_piece) {
        MatmulShape gshape = shape;
        gshape.k = k_gpu;
        Tensor gout = MatmulNumeric(input.tensor, parts, k_npu, shape.k);
        sim::KernelDesc gdesc = gpu.CostMatmul(GpuMatmulSpec(gshape));
        gdesc.label = StrFormat("%s:gpu-cut", MatmulSiteName(site));
        gpu_piece = SubmitKernel(gpu, gdesc, {&input}, std::move(gout));
      }

      ensure_graph(npu_m, shape.n, k_npu);
      Tensor nout = MatmulNumeric(input.tensor, parts, 0, k_npu);
      sim::KernelDesc ndesc = npu.CostMatmul(npu_spec(npu_m, k_npu));
      ndesc.label = StrFormat("%s:npu-cut", MatmulSiteName(site));
      Value npu_piece = SubmitKernel(npu, ndesc, {&input}, std::move(nout));

      // Merge. The pieces write disjoint column ranges of one unified
      // buffer, so the merge itself is free; the host only needs the
      // completion guarantees.
      Value merged;
      merged.tensor =
          has_gpu_piece
              ? Tensor::ConcatCols({npu_piece.tensor, gpu_piece.tensor})
              : std::move(npu_piece.tensor);
      if (has_gpu_piece && phase == Phase::kDecode) {
        // GPU-dominant pipelining: leave the GPU piece pending; queue order
        // synchronizes any same-device consumer, and a cross-device
        // consumer will fast-sync on it (§4.2).
        EnsureHost(npu_piece);
        merged.deps = std::move(gpu_piece.deps);
      } else {
        // One (batched) wait covers both pieces.
        merged.deps = std::move(npu_piece.deps);
        if (has_gpu_piece) {
          merged.deps.insert(merged.deps.end(), gpu_piece.deps.begin(),
                             gpu_piece.deps.end());
        }
        EnsureHost(merged);
      }
      host_now_ += options_.merge_cost_us;
      return merged;
    }

    case PartitionKind::kSeqCut: {
      int64_t npu_rows = 0;
      for (int64_t seg : plan.npu_seq_segments) {
        npu_rows += seg;
      }
      // The static segments may overshoot the true length (Pipe pads its
      // margin into the smallest graph); numerics only use real rows.
      const int64_t npu_real_rows = std::min(npu_rows, shape.m);
      const int64_t gpu_rows = shape.m - npu_real_rows;

      std::vector<Value> pieces;
      std::vector<Tensor> piece_tensors;
      int64_t row = 0;
      for (int64_t seg : plan.npu_seq_segments) {
        const int64_t r0 = row;
        const int64_t r1 = std::min(row + seg, npu_real_rows);
        if (r1 <= r0) {
          break;
        }
        ensure_graph(seg, shape.n, shape.k);
        Tensor slice = input.tensor.SliceRows(r0, r1);
        Tensor out = MatmulNumeric(slice, parts, 0, shape.k);
        sim::KernelDesc desc = npu.CostMatmul(npu_spec(seg, shape.k));
        desc.label = StrFormat("%s:npu-seq%lld", MatmulSiteName(site),
                               static_cast<long long>(seg));
        pieces.push_back(SubmitKernel(npu, desc, {&input}, std::move(out)));
        row = r1;
      }
      if (gpu_rows > 0) {
        MatmulShape gshape = shape;
        gshape.m = gpu_rows;
        Tensor slice = input.tensor.SliceRows(npu_real_rows, shape.m);
        Tensor out = MatmulNumeric(slice, parts, 0, shape.k);
        sim::KernelDesc desc = gpu.CostMatmul(GpuMatmulSpec(gshape));
        desc.label = StrFormat("%s:gpu-seq", MatmulSiteName(site));
        pieces.push_back(SubmitKernel(gpu, desc, {&input}, std::move(out)));
      }
      HCHECK(!pieces.empty());

      Value merged;
      piece_tensors.reserve(pieces.size());
      for (Value& p : pieces) {
        piece_tensors.push_back(p.tensor);
        merged.deps.insert(merged.deps.end(), p.deps.begin(), p.deps.end());
      }
      merged.tensor = piece_tensors.size() == 1
                          ? std::move(piece_tensors[0])
                          : Tensor::ConcatRows(piece_tensors);
      EnsureHost(merged);  // one batched wait across all pieces
      host_now_ += options_.merge_cost_us;
      return merged;
    }
  }
  HCHECK_MSG(false, "unknown partition kind");
  __builtin_unreachable();
}

EngineBase::Value EngineBase::RmsNorm(Value& x, const Tensor& gamma) {
  hal::Device& dev = platform_->device(vector_backend());
  hal::ElementwiseSpec spec;
  spec.elems = x.tensor.numel();
  spec.flops_per_elem = 4.0;
  spec.bytes_per_elem = 4.0;
  sim::KernelDesc desc = dev.CostElementwise(spec);
  desc.label = "rmsnorm";
  Tensor out = tensor::ops::RmsNorm(x.tensor, gamma);
  return SubmitKernel(dev, desc, {&x}, std::move(out));
}

EngineBase::Value EngineBase::Add(Value& a, Value& b) {
  hal::Device& dev = platform_->device(vector_backend());
  hal::ElementwiseSpec spec;
  spec.elems = a.tensor.numel();
  spec.flops_per_elem = 1.0;
  spec.bytes_per_elem = 6.0;
  sim::KernelDesc desc = dev.CostElementwise(spec);
  desc.label = "residual";
  Tensor out = tensor::ops::Add(a.tensor, b.tensor);
  return SubmitKernel(dev, desc, {&a, &b}, std::move(out));
}

EngineBase::Value EngineBase::SwiGlu(Value& gate, Value& up) {
  hal::Device& dev = platform_->device(vector_backend());
  hal::ElementwiseSpec spec;
  spec.elems = gate.tensor.numel();
  spec.flops_per_elem = 6.0;
  spec.bytes_per_elem = 6.0;
  sim::KernelDesc desc = dev.CostElementwise(spec);
  desc.label = "swiglu";
  Tensor out = tensor::ops::SwiGlu(gate.tensor, up.tensor);
  return SubmitKernel(dev, desc, {&gate, &up}, std::move(out));
}

EngineBase::Value EngineBase::Rope(Value& x, int64_t pos_offset) {
  hal::Device& dev = platform_->device(vector_backend());
  hal::ElementwiseSpec spec;
  spec.elems = x.tensor.numel();
  spec.flops_per_elem = 6.0;
  spec.bytes_per_elem = 4.0;
  sim::KernelDesc desc = dev.CostElementwise(spec);
  desc.label = "rope";
  Tensor out = x.tensor;
  tensor::ops::ApplyRope(out, pos_offset, weights_->config().head_dim);
  return SubmitKernel(dev, desc, {&x}, std::move(out));
}

EngineBase::Value EngineBase::Attention(Value& q, int layer,
                                        const std::vector<Batch::Slot>& slots,
                                        int64_t pos_offset) {
  const auto& cfg = weights_->config();
  hal::Device& dev = platform_->device(vector_backend());
  // One attention kernel per slot: each reads its own cache length, so the
  // cost tracks every conversation's true history (the part of a batched
  // iteration that does NOT amortize with batching).
  Value merged;
  for (const Batch::Slot& slot : slots) {
    hal::AttentionSpec spec;
    spec.m = slot.rows;
    // Causal attention: query row i attends to kv_len - m + i + 1
    // positions; charge the average span rather than the full rectangle.
    const int64_t kv_len = slot.cache->K(layer).shape().rows();
    spec.t = kv_len - spec.m + (spec.m + 1) / 2;
    spec.num_heads = cfg.num_heads;
    spec.num_kv_heads = cfg.num_kv_heads;
    spec.head_dim = cfg.head_dim;
    sim::KernelDesc desc = dev.CostAttention(spec);
    desc.label = StrFormat("attn:L%d", layer);
    Value piece = SubmitKernel(dev, desc, {&q}, Tensor());
    merged.deps.insert(merged.deps.end(), piece.deps.begin(),
                       piece.deps.end());
  }
  // Numerics: one slot attends over its own cache from `pos_offset`; a
  // multi-slot batch is timing-only, so its output stays deferred.
  if (slots.size() == 1) {
    tensor::AttentionParams params;
    params.num_heads = cfg.num_heads;
    params.num_kv_heads = cfg.num_kv_heads;
    params.head_dim = cfg.head_dim;
    params.q_pos_offset = pos_offset;
    merged.tensor = tensor::GqaAttention(q.tensor, slots[0].cache->K(layer),
                                         slots[0].cache->V(layer), params);
  } else {
    merged.tensor = Tensor::Deferred(
        Shape({q.tensor.shape().rows(), cfg.q_dim()}), tensor::DType::kFp16);
  }
  return merged;
}

PhaseStats EngineBase::Execute(const Batch& batch) {
  const Tensor& input = batch.input;
  HCHECK(input.shape().rank() == 2);
  HCHECK(input.shape().cols() == weights_->config().hidden);
  HCHECK(!batch.slots.empty());
  int64_t rows = 0;
  for (const Batch::Slot& slot : batch.slots) {
    HCHECK(slot.cache != nullptr && slot.rows >= 1);
    rows += slot.rows;
  }
  HCHECK_MSG(rows == input.shape().rows(),
             "batch slot rows must add up to the input rows");
  HCHECK_MSG(batch.logits_rows >= 1 && batch.logits_rows <= rows,
             "batch logits_rows must be in [1, rows]");
  // Sessions in one batch hold different cache contents; one forward pass
  // cannot produce their numerics, so multi-slot batches are timing-only.
  HCHECK_MSG(batch.slots.size() == 1 || mode_ == ExecutionMode::kSimulate,
             "multi-slot batches are timing-only (ExecutionMode::kSimulate)");
  // Pin the compute-kernel thread count for everything this step runs
  // (matmuls, norms, attention). Numerics are bit-exact across settings;
  // only host wall-clock changes.
  tensor::KernelThreadScope kernel_scope(options_.kernel_threads);
  RefreshDeviceState();
  // One transactional KV step per slot: every layer must append its rows
  // before the commit below, or the cache aborts — the per-layer "all
  // layers appended the same rows" contract is enforced here instead of
  // trusted.
  for (const Batch::Slot& slot : batch.slots) {
    slot.cache->BeginStep(slot.rows);
  }
  const graph::CompiledSchedule& sched =
      ScheduleFor(batch.phase, rows, batch.logits_rows);
  PhaseStats stats = ScheduleExecutor(this).Run(sched, batch);
  for (const Batch::Slot& slot : batch.slots) {
    slot.cache->CommitStep();
  }
  return stats;
}

const graph::CompiledSchedule& EngineBase::ScheduleFor(Phase phase,
                                                       int64_t rows,
                                                       int64_t logits_rows) {
  const uint64_t key = (static_cast<uint64_t>(rows) << 1) |
                       (phase == Phase::kDecode ? 1u : 0u);
  std::map<int64_t, graph::CompiledSchedule>& bucket = schedule_cache_[key];
  auto it = bucket.find(logits_rows);
  if (it != bucket.end()) {
    return it->second;
  }
  if (!bucket.empty()) {
    // The body is compiled already: re-plan only the LM head.
    StatusOr<graph::CompiledSchedule> sched =
        graph::WithLogitsRows(bucket.begin()->second, logits_rows, this);
    HCHECK_MSG(sched.ok(), sched.status().message().c_str());
    return bucket.emplace(logits_rows, std::move(sched.value())).first->second;
  }
  // Compile once per (phase, rows): the pipeline below (including every
  // PlanMatmul consultation) runs exactly once, then replays from the
  // cache.
  const auto& cfg = weights_->config();
  graph::Graph g = graph::BuildModelGraph(cfg);
  Status shaped = graph::InferShapes(&g, cfg, rows);
  HCHECK_MSG(shaped.ok(), shaped.message().c_str());
  // FuseSiluMul always applies: the engine runs SiLU and the gate product
  // as one SwiGlu kernel. FuseQkv changes kernel granularity, so it is
  // opt-in.
  g = graph::FuseSiluMul(g).graph;
  if (options_.fuse_qkv) {
    g = graph::FuseQkv(g).graph;
  }
  g = graph::EliminateDeadNodes(g).graph;
  shaped = graph::InferShapes(&g, cfg, rows);
  HCHECK_MSG(shaped.ok(), shaped.message().c_str());
  StatusOr<graph::PlacedGraph> placed =
      graph::PlaceGraph(g, phase, this, logits_rows);
  HCHECK_MSG(placed.ok(), placed.status().message().c_str());
  StatusOr<graph::CompiledSchedule> sched = graph::CompileSchedule(
      placed.value());
  HCHECK_MSG(sched.ok(), sched.status().message().c_str());
  ++schedule_compiles_;
  return bucket.emplace(logits_rows, std::move(sched.value())).first->second;
}

bool EngineBase::ScheduleUsesBackend(
    const graph::CompiledSchedule& sched,
    const std::vector<hal::Backend>& changed) const {
  auto hit = [&](hal::Backend b) {
    return std::find(changed.begin(), changed.end(), b) != changed.end();
  };
  // Vector ops (norms, RoPE, attention, activations) all run on the
  // engine's vector backend.
  if (hit(vector_backend())) {
    return true;
  }
  for (const std::vector<graph::ScheduleStep>* steps :
       {sched.body.get(), &sched.tail}) {
    for (const graph::ScheduleStep& step : *steps) {
      if (step.kind != graph::StepKind::kMatmul) {
        continue;
      }
      if (step.plan.kind == PartitionKind::kNone) {
        if (hit(step.plan.sole_backend)) {
          return true;
        }
      } else if (hit(hal::Backend::kGpu) || hit(hal::Backend::kNpu)) {
        // Every partition kind splits work between GPU and NPU.
        return true;
      }
    }
  }
  return false;
}

void EngineBase::RefreshDeviceState() {
  const sim::SocSimulator& soc = platform_->soc();
  const uint64_t epoch = soc.device_state_epoch();
  if (epoch == seen_epoch_) {
    return;
  }
  if (!options_.reactive_replanning) {
    // Frozen-plan mode: acknowledge the epoch so the check stays O(1), keep
    // every cache as-is.
    seen_epoch_ = epoch;
    return;
  }
  std::vector<hal::Backend> changed;
  for (hal::Backend b :
       {hal::Backend::kCpu, hal::Backend::kGpu, hal::Backend::kNpu}) {
    if (soc.unit_state_epoch(platform_->device(b).unit()) > seen_epoch_) {
      changed.push_back(b);
    }
  }
  seen_epoch_ = epoch;
  if (changed.empty()) {
    return;
  }
  for (auto bucket = schedule_cache_.begin();
       bucket != schedule_cache_.end();) {
    std::map<int64_t, graph::CompiledSchedule>& scheds = bucket->second;
    for (auto it = scheds.begin(); it != scheds.end();) {
      if (ScheduleUsesBackend(it->second, changed)) {
        it = scheds.erase(it);
      } else {
        ++it;
      }
    }
    // A body survives while some schedule still holds it.
    bucket = scheds.empty() ? schedule_cache_.erase(bucket) : std::next(bucket);
  }
  OnDeviceStateChange(changed);
  ++replan_events_;
  host_now_ += options_.replan_cost_us;
}

PhaseStats EngineBase::Prefill(const Tensor& prompt) {
  return Execute(Batch::One(Phase::kPrefill, kv_cache_.get(), prompt));
}

PhaseStats EngineBase::DecodeStep(const Tensor& token) {
  return Execute(Batch::One(Phase::kDecode, kv_cache_.get(), token));
}

GenerationStats EngineBase::Generate(int prompt_len, int decode_len) {
  ResetSession();
  // Snapshot (not Reset) so concurrent workloads on the platform keep their
  // queues: anything executing inside the window — including interference
  // kernels submitted by other workloads — is charged to this window.
  const sim::PowerSnapshot power_start = platform_->soc().power().Snapshot();
  const int replan_start = replan_events_;
  const MicroSeconds window_start = host_now_;

  Rng rng(7);
  auto make_input = [&](int rows) {
    Shape shape({rows, weights_->config().hidden});
    if (mode_ == ExecutionMode::kCompute) {
      return Tensor::Random(shape, rng, 0.1f, tensor::DType::kFp16);
    }
    return Tensor::Deferred(shape, tensor::DType::kFp16);
  };

  GenerationStats stats;
  stats.prefill = Prefill(make_input(prompt_len));
  for (int i = 0; i < decode_len; ++i) {
    PhaseStats step = DecodeStep(make_input(1));
    stats.decode_time += step.latency;
    ++stats.decode_tokens;
  }

  platform_->soc().DrainAll();
  host_now_ = std::max(host_now_, platform_->soc().now());
  const MicroSeconds window = host_now_ - window_start;
  // Windowed accounting: deltas against the start snapshot, so back-to-back
  // Generate calls (and anything the platform ran before) don't leak
  // activity into each other's energy numbers.
  stats.energy =
      platform_->soc().power().TotalEnergySince(power_start, window);
  stats.avg_power_watts =
      platform_->soc().power().AveragePowerWattsSince(power_start, window);
  stats.replan_events = replan_events_ - replan_start;
  return stats;
}

}  // namespace heterollm::core
