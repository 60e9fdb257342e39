// Schedule compiler: lowers a placed graph into a `CompiledSchedule` — a
// flat, replayable list of execution steps (kernel submissions with resolved
// partition plans, KV-cache appends, cross-device sync points, merge steps
// and static NPU-graph references).
//
// A schedule is compiled once per (phase, row count, logits rows) and cached
// by the engine, so per-token planning — site resolution, solver/profiler
// consultation, plan-cache lookups — disappears from the decode hot path:
// replaying a step only submits the kernels the plan already names. A
// schedule is a decoder *body* (every step through the final norm, shared
// between schedules of one phase and row count) and a two-step logits
// *tail* (kLastRows + the LM head); `WithLogitsRows` re-targets the tail
// without recompiling the body. The executor
// (`src/core/schedule_executor.h`) replays the steps against the simulated
// Platform through the engine's own SubmitKernel/EnsureVisible machinery;
// it is the engine's only execution path.

#ifndef SRC_GRAPH_SCHEDULE_H_
#define SRC_GRAPH_SCHEDULE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/graph/placement.h"
#include "src/hal/npu_graph.h"

namespace heterollm::graph {

enum class StepKind {
  // Captures the session's KV length before the layer's cache appends; the
  // layer's RoPE/attention position offsets replay against this snapshot.
  kBeginLayer,
  kMatmul,     // one (possibly partitioned) matmul site
  kRmsNorm,
  kRope,
  kAttention,  // KV append(s) + cross-device sync + attention kernel(s)
  kSilu,
  kMul,
  kAdd,
  kSwiGlu,
  // Zero-cost column view of a fused matmul result (the slices address
  // disjoint ranges of one unified buffer); carries the producer's deps.
  kSliceCols,
  // LM-head input alias: the schedule's last `logits_rows` rows (the last
  // row of one session's pass, every row of a decode/verify batch, the
  // chunk's last row plus the decode rows of a fused hybrid round).
  kLastRows,
};

const char* StepKindName(StepKind kind);

struct ScheduleStep {
  StepKind kind = StepKind::kBeginLayer;
  int out = -1;  // destination value slot
  int a = -1;    // input value slots (b/c where the op needs them)
  int b = -1;
  int c = -1;
  int layer = 0;            // kBeginLayer / kAttention / kMatmul
  int64_t begin = 0;        // kSliceCols / kLastRows row- or col-range
  int64_t end = 0;
  int64_t gamma_ref = -1;   // kRmsNorm: gain weight reference
  // kMatmul only — everything execution needs, resolved at compile time:
  core::MatmulSite site = core::MatmulSite::kQ;
  int64_t op_id = 0;
  core::MatmulShape shape;
  core::MatmulPlan plan;
  std::vector<int64_t> weight_refs;  // 1 ref, or 3 for fused QKV
  // Static NPU graphs this step's plan executes (empty for GPU/CPU-only
  // plans). Preloaded engines must have these compiled ahead of time.
  std::vector<hal::NpuGraphKey> npu_graphs;
};

struct CompiledSchedule {
  core::Phase phase = core::Phase::kPrefill;
  int64_t rows = 0;  // input rows (seq length / decode width / batch)
  // The LM head runs over rows [rows - logits_rows, rows).
  int64_t logits_rows = 1;
  int num_slots = 0;  // dataflow value slots the executor allocates
  int input_slot = -1;
  int hidden_slot = -1;  // final hidden state (post final-norm)
  int logits_slot = -1;
  // Every step through the final norm. It does not depend on logits_rows,
  // so the schedules of one (phase, rows) share a single copy.
  std::shared_ptr<const std::vector<ScheduleStep>> body;
  // kLastRows over the logits rows, then the LM-head matmul placed at
  // m = logits_rows. Replayed after the body.
  std::vector<ScheduleStep> tail;
  // Static structure counts (diagnostics, docs, tests).
  int matmul_steps = 0;
  int fused_qkv_steps = 0;
  int merge_steps = 0;   // partitioned matmuls requiring a host-side merge
  int npu_graph_refs = 0;

  // One-line structural summary ("steps=… matmuls=… fused_qkv=… …").
  std::string Summary() const;
};

// Compiles `placed` into a replayable schedule (logits rows are taken from
// the placed graph). The placed graph must follow the decoder conventions
// the builder emits: weights referenced by `weight_ref`, the LM head as the
// last compute op, outputs [hidden, logits].
StatusOr<CompiledSchedule> CompileSchedule(const PlacedGraph& placed);

// `sched` with its logits tail re-targeted at `logits_rows`: the LM head is
// re-planned under `policy` at m = logits_rows and kLastRows re-emitted;
// the body is shared, not copied or re-planned. Fails unless logits_rows
// is in [1, sched.rows].
StatusOr<CompiledSchedule> WithLogitsRows(const CompiledSchedule& sched,
                                          int64_t logits_rows,
                                          PlacementPolicy* policy);

}  // namespace heterollm::graph

#endif  // SRC_GRAPH_SCHEDULE_H_
