#include "src/graph/placement.h"

#include "src/common/strings.h"
#include "src/graph/builder.h"

namespace heterollm::graph {

using core::MatmulShape;
using core::MatmulSite;
using core::Phase;

namespace {

// Matmul site for a plain weight reference; false for norms (not matmuls).
bool SiteForWeightRef(int64_t ref, MatmulSite* site) {
  switch (WeightRefSite(ref)) {
    case WeightSite::kWq:
      *site = MatmulSite::kQ;
      return true;
    case WeightSite::kWk:
      *site = MatmulSite::kK;
      return true;
    case WeightSite::kWv:
      *site = MatmulSite::kV;
      return true;
    case WeightSite::kWo:
      *site = MatmulSite::kO;
      return true;
    case WeightSite::kWGate:
      *site = MatmulSite::kGate;
      return true;
    case WeightSite::kWUp:
      *site = MatmulSite::kUp;
      return true;
    case WeightSite::kWDown:
      *site = MatmulSite::kDown;
      return true;
    case WeightSite::kLmHead:
      *site = MatmulSite::kLmHead;
      return true;
    case WeightSite::kAttnNorm:
    case WeightSite::kFfnNorm:
    case WeightSite::kFinalNorm:
      return false;
  }
  return false;
}

Status ResolveMatmul(const Graph& g, const Node& n, NodePlacement* p) {
  const Node& w = g.node(n.inputs[1]);
  if (w.type == OpType::kWeight) {
    MatmulSite site;
    if (!SiteForWeightRef(w.attrs.weight_ref, &site)) {
      return InvalidArgumentError(StrFormat(
          "matmul %s: weight ref %lld is not a matmul site", n.name.c_str(),
          static_cast<long long>(w.attrs.weight_ref)));
    }
    p->site = site;
    p->layer = site == MatmulSite::kLmHead
                   ? 0
                   : WeightRefLayer(w.attrs.weight_ref);
    p->weight_refs = {w.attrs.weight_ref};
    return Status::Ok();
  }
  if (w.type == OpType::kConcatCols && w.inputs.size() == 3) {
    // The FuseQkv pattern: concat of one layer's Wq, Wk, Wv (in order).
    const WeightSite expect[3] = {WeightSite::kWq, WeightSite::kWk,
                                  WeightSite::kWv};
    int layer = -1;
    std::vector<int64_t> refs;
    for (int i = 0; i < 3; ++i) {
      const Node& part = g.node(w.inputs[i]);
      if (part.type != OpType::kWeight ||
          WeightRefSite(part.attrs.weight_ref) != expect[i]) {
        return InvalidArgumentError(StrFormat(
            "matmul %s: concat operand %d is not the expected projection "
            "weight", n.name.c_str(), i));
      }
      const int part_layer = WeightRefLayer(part.attrs.weight_ref);
      if (layer >= 0 && part_layer != layer) {
        return InvalidArgumentError(StrFormat(
            "matmul %s: fused weights span layers", n.name.c_str()));
      }
      layer = part_layer;
      refs.push_back(part.attrs.weight_ref);
    }
    p->site = MatmulSite::kQkv;
    p->layer = layer;
    p->weight_refs = std::move(refs);
    return Status::Ok();
  }
  return InvalidArgumentError(StrFormat(
      "matmul %s: weight operand %s is neither a weight nor a fused "
      "Wq|Wk|Wv concat", n.name.c_str(), OpTypeName(w.type)));
}

}  // namespace

StatusOr<PlacedGraph> PlaceGraph(const Graph& g, Phase phase,
                                 PlacementPolicy* policy,
                                 int64_t logits_rows) {
  HCHECK(policy != nullptr);
  HRETURN_IF_ERROR(g.Validate());

  PlacedGraph placed;
  placed.graph = g;
  placed.phase = phase;
  placed.logits_rows = logits_rows;
  placed.placements.resize(g.node_count());

  for (NodeId id : g.LiveNodesInOrder()) {
    const Node& n = g.node(id);
    NodePlacement& p = placed.placements[id];
    if (n.type != OpType::kMatmul) {
      p.backend = policy->vector_backend();
      continue;
    }
    // A matmul whose "weight" operand is itself an activation has no site in
    // the decoder vocabulary; the model graphs never produce one.
    HRETURN_IF_ERROR(ResolveMatmul(g, n, &p));
    p.is_matmul = true;
    const Node& act = g.node(n.inputs[0]);
    const Node& w = g.node(n.inputs[1]);
    if (act.shape.rank() != 2 || w.shape.rank() != 2 || n.shape.rank() != 2) {
      return InvalidArgumentError(StrFormat(
          "matmul %s: run InferShapes before PlaceGraph", n.name.c_str()));
    }
    p.shape.m = act.shape.rows();
    p.shape.n = w.shape.rows();
    p.shape.k = w.shape.cols();
    if (p.site == MatmulSite::kLmHead) {
      if (logits_rows < 1 || logits_rows > p.shape.m) {
        return InvalidArgumentError(StrFormat(
            "logits_rows %lld outside [1, %lld]",
            static_cast<long long>(logits_rows),
            static_cast<long long>(p.shape.m)));
      }
      p.shape.m = logits_rows;  // logits only for the rows that need them
    }
    p.op_id = core::GraphOpId(p.layer, p.site);
    p.plan = policy->PlanMatmul(p.site, p.shape, phase);
    ++placed.matmul_count;
    if (p.site == MatmulSite::kQkv) {
      ++placed.fused_qkv_count;
    }
  }
  return placed;
}

std::string PlacedToDot(const PlacedGraph& placed) {
  const Graph& g = placed.graph;
  std::string out = "digraph heterollm_placed {\n  rankdir=TB;\n";
  for (NodeId id : g.LiveNodesInOrder()) {
    const Node& n = g.node(id);
    const NodePlacement& p = placed.placements[id];
    std::string label;
    std::string color = "gray80";
    if (p.is_matmul) {
      label = StrFormat("%s\\n%s %s", n.name.c_str(),
                        core::MatmulSiteName(p.site),
                        p.plan.ToString().c_str());
      color = p.plan.kind == core::PartitionKind::kNone
                  ? (p.plan.sole_backend == hal::Backend::kNpu
                         ? "palegreen"
                         : "lightsalmon")
                  : "khaki";  // partitioned across GPU+NPU
    } else if (n.type == OpType::kWeight || n.type == OpType::kInput ||
               n.type == OpType::kOutput) {
      label = StrFormat("%s\\n%s", n.name.c_str(), OpTypeName(n.type));
    } else {
      label = StrFormat("%s\\n%s @%s", n.name.c_str(), OpTypeName(n.type),
                        hal::BackendName(p.backend));
      color = p.backend == hal::Backend::kGpu ? "lightsalmon" : "lightblue";
    }
    out += StrFormat("  n%d [style=filled, fillcolor=%s, label=\"%s\"];\n",
                     id, color.c_str(), label.c_str());
    for (NodeId in : n.inputs) {
      out += StrFormat("  n%d -> n%d;\n", in, id);
    }
  }
  out += "}\n";
  return out;
}

}  // namespace heterollm::graph
