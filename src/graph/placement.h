// Backend-placement pass (the paper's Fig. 1 "backend lowering" stage).
//
// Takes an optimized, shape-inferred graph and annotates every live node
// with an execution assignment: matmuls get a fully-resolved `MatmulPlan`
// (single backend or a GPU/NPU partition) chosen by the *same* policy the
// engines use — `PlanMatmul` plus the vector backend — so engine subclasses
// stay pure policy while the graph carries the mechanism. The placed graph
// is what the schedule compiler (`schedule.h`) lowers into a replayable
// `CompiledSchedule`.
//
// Matmul sites are recovered from the weight operand: a plain `kWeight`
// input maps via its WeightRef site, and a `kConcatCols` of one layer's
// Wq/Wk/Wv (the FuseQkv pattern) becomes the fused `MatmulSite::kQkv` site
// with three weight references.

#ifndef SRC_GRAPH_PLACEMENT_H_
#define SRC_GRAPH_PLACEMENT_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/partition.h"
#include "src/graph/graph.h"

namespace heterollm::graph {

// What the placement pass needs from an engine. `EngineBase` implements
// this interface directly: its `PlanMatmul` policy virtual and vector
// backend *are* the placement policy.
class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  // Chooses the execution plan for one matmul site.
  virtual core::MatmulPlan PlanMatmul(core::MatmulSite site,
                                      const core::MatmulShape& shape,
                                      core::Phase phase) = 0;

  // Backend for norms, RoPE, attention, activations and residuals.
  virtual hal::Backend vector_backend() const = 0;
};

struct NodePlacement {
  // Non-matmul compute nodes run whole on this backend.
  hal::Backend backend = hal::Backend::kGpu;
  bool is_matmul = false;
  // Matmul nodes only:
  core::MatmulSite site = core::MatmulSite::kQ;
  int layer = 0;               // 0 for the LM head
  int64_t op_id = 0;           // NPU-graph op instance (core::GraphOpId)
  core::MatmulShape shape;
  core::MatmulPlan plan;
  std::vector<int64_t> weight_refs;  // 1 ref, or 3 for a fused QKV concat
};

struct PlacedGraph {
  Graph graph;  // the placed graph (a copy; shapes inferred)
  core::Phase phase = core::Phase::kPrefill;
  // Rows, counted back from the last input row, the LM head runs over: 1
  // when only the last position's logits are needed, every row in a decode
  // or verify batch (each row is some session's next-token position), and
  // the prefill chunk's last row plus every decode row in a fused hybrid
  // round. The head is placed at m = logits_rows.
  int64_t logits_rows = 1;
  std::vector<NodePlacement> placements;  // indexed by NodeId
  int matmul_count = 0;
  int fused_qkv_count = 0;
};

// Annotates each live node of `g` (shape-inferred, post-passes) with its
// placement under `policy`. Fails when a matmul's weight operand is neither
// a weight reference nor a fused Wq/Wk/Wv concat, shapes are missing, or
// `logits_rows` is not in [1, rows].
StatusOr<PlacedGraph> PlaceGraph(const Graph& g, core::Phase phase,
                                 PlacementPolicy* policy,
                                 int64_t logits_rows = 1);

// Graphviz rendering of the placed graph: one box per live node labelled
// with its backend assignment or partition plan (docs: Fig. 1 end-to-end).
std::string PlacedToDot(const PlacedGraph& placed);

}  // namespace heterollm::graph

#endif  // SRC_GRAPH_PLACEMENT_H_
