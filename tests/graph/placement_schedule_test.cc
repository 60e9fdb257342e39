// Placement pass + schedule compiler unit tests: site resolution (plain and
// fused weights), per-node plans, and the structure of the compiled
// schedule (step counts, layer markers, LM-head row handling, NPU graph
// references).

#include <vector>

#include <gtest/gtest.h>

#include "src/graph/builder.h"
#include "src/graph/passes.h"
#include "src/graph/placement.h"
#include "src/graph/schedule.h"
#include "src/model/model_config.h"

namespace heterollm::graph {
namespace {

using core::MatmulPlan;
using core::MatmulShape;
using core::MatmulSite;
using core::PartitionKind;
using core::Phase;
using model::ModelConfig;

// Deterministic policy: every matmul whole on the NPU, vector ops on GPU.
class NpuPolicy : public PlacementPolicy {
 public:
  MatmulPlan PlanMatmul(MatmulSite /*site*/, const MatmulShape& /*shape*/,
                        Phase /*phase*/) override {
    MatmulPlan plan;
    plan.kind = PartitionKind::kNone;
    plan.sole_backend = hal::Backend::kNpu;
    return plan;
  }
  hal::Backend vector_backend() const override { return hal::Backend::kGpu; }
};

Graph OptimizedGraph(const ModelConfig& cfg, int64_t rows, bool fuse_qkv) {
  Graph g = BuildModelGraph(cfg);
  HCHECK(InferShapes(&g, cfg, rows).ok());
  g = FuseSiluMul(g).graph;
  if (fuse_qkv) {
    g = FuseQkv(g).graph;
  }
  g = EliminateDeadNodes(g).graph;
  HCHECK(InferShapes(&g, cfg, rows).ok());
  return g;
}

// The body steps followed by the logits tail, in replay order.
std::vector<ScheduleStep> AllSteps(const CompiledSchedule& s) {
  std::vector<ScheduleStep> steps = *s.body;
  steps.insert(steps.end(), s.tail.begin(), s.tail.end());
  return steps;
}

TEST(PlacementTest, AnnotatesEveryMatmulWithSiteAndPlan) {
  const ModelConfig cfg = ModelConfig::Tiny();
  Graph g = OptimizedGraph(cfg, 32, /*fuse_qkv=*/false);
  NpuPolicy policy;
  auto placed = PlaceGraph(g, Phase::kPrefill, &policy);
  ASSERT_TRUE(placed.ok()) << placed.status().ToString();

  // 7 projection sites per layer plus the LM head.
  EXPECT_EQ(placed.value().matmul_count, cfg.num_layers * 7 + 1);
  EXPECT_EQ(placed.value().fused_qkv_count, 0);
  for (NodeId id : placed.value().graph.LiveNodesInOrder()) {
    const NodePlacement& p = placed.value().placements[id];
    if (!p.is_matmul) {
      continue;
    }
    EXPECT_EQ(p.weight_refs.size(), 1u);
    EXPECT_EQ(p.plan.sole_backend, hal::Backend::kNpu);
    EXPECT_EQ(p.op_id, core::GraphOpId(p.layer, p.site));
  }
}

TEST(PlacementTest, FusedQkvBecomesOneSiteWithThreeWeights) {
  const ModelConfig cfg = ModelConfig::Tiny();
  Graph g = OptimizedGraph(cfg, 32, /*fuse_qkv=*/true);
  NpuPolicy policy;
  auto placed = PlaceGraph(g, Phase::kPrefill, &policy);
  ASSERT_TRUE(placed.ok()) << placed.status().ToString();

  // q/k/v collapse into one site per layer: 5 matmuls per layer + head.
  EXPECT_EQ(placed.value().fused_qkv_count, cfg.num_layers);
  EXPECT_EQ(placed.value().matmul_count, cfg.num_layers * 5 + 1);
  int fused_seen = 0;
  for (NodeId id : placed.value().graph.LiveNodesInOrder()) {
    const NodePlacement& p = placed.value().placements[id];
    if (p.is_matmul && p.site == MatmulSite::kQkv) {
      ++fused_seen;
      EXPECT_EQ(p.weight_refs.size(), 3u);
      EXPECT_EQ(p.shape.k, cfg.q_dim() + 2 * cfg.kv_dim());
    }
  }
  EXPECT_EQ(fused_seen, cfg.num_layers);
}

// The LM head runs over the logits rows only: 1 for one session, every row
// when serving, and in a fused hybrid round the chunk's last row plus the
// decode rows (here 6). The body always runs every row.
TEST(PlacementTest, LmHeadPlacedAtOneRowUnlessServing) {
  const ModelConfig cfg = ModelConfig::Tiny();
  Graph g = OptimizedGraph(cfg, 32, /*fuse_qkv=*/false);
  NpuPolicy policy;
  auto single = PlaceGraph(g, Phase::kPrefill, &policy, /*logits_rows=*/1);
  auto serving = PlaceGraph(g, Phase::kDecode, &policy, /*logits_rows=*/32);
  auto fused = PlaceGraph(g, Phase::kPrefill, &policy, /*logits_rows=*/6 + 1);
  ASSERT_TRUE(single.ok() && serving.ok() && fused.ok());
  EXPECT_EQ(fused.value().logits_rows, 7);
  for (NodeId id : g.LiveNodesInOrder()) {
    const NodePlacement& p = fused.value().placements[id];
    if (!p.is_matmul) {
      continue;
    }
    if (p.site == MatmulSite::kLmHead) {
      EXPECT_EQ(single.value().placements[id].shape.m, 1);
      EXPECT_EQ(serving.value().placements[id].shape.m, 32);
      EXPECT_EQ(p.shape.m, 7);
    } else {
      EXPECT_EQ(p.shape.m, 32);
    }
  }
  EXPECT_FALSE(PlaceGraph(g, Phase::kPrefill, &policy, 0).ok());
  EXPECT_FALSE(PlaceGraph(g, Phase::kPrefill, &policy, 33).ok());
}

TEST(PlacementTest, RequiresInferredShapes) {
  const ModelConfig cfg = ModelConfig::Tiny();
  Graph g = BuildModelGraph(cfg);  // no InferShapes
  NpuPolicy policy;
  EXPECT_FALSE(PlaceGraph(g, Phase::kPrefill, &policy).ok());
}

TEST(PlacementTest, DotRenderingNamesBackends) {
  const ModelConfig cfg = ModelConfig::Tiny();
  Graph g = OptimizedGraph(cfg, 32, /*fuse_qkv=*/false);
  NpuPolicy policy;
  auto placed = PlaceGraph(g, Phase::kPrefill, &policy);
  ASSERT_TRUE(placed.ok());
  const std::string dot = PlacedToDot(placed.value());
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("palegreen"), std::string::npos);  // NPU matmuls
  EXPECT_NE(dot.find("lm_head"), std::string::npos);
}

TEST(ScheduleTest, CompilesDecoderStructure) {
  const ModelConfig cfg = ModelConfig::Tiny();
  Graph g = OptimizedGraph(cfg, 32, /*fuse_qkv=*/false);
  NpuPolicy policy;
  auto placed = PlaceGraph(g, Phase::kPrefill, &policy);
  ASSERT_TRUE(placed.ok());
  auto sched = CompileSchedule(placed.value());
  ASSERT_TRUE(sched.ok()) << sched.status().ToString();

  const CompiledSchedule& s = sched.value();
  EXPECT_EQ(s.rows, 32);
  EXPECT_EQ(s.matmul_steps, cfg.num_layers * 7 + 1);
  EXPECT_EQ(s.merge_steps, 0);  // whole-NPU plans need no merge
  // One NPU graph per matmul (kNone on NPU).
  EXPECT_EQ(s.npu_graph_refs, s.matmul_steps);
  EXPECT_GE(s.num_slots, s.matmul_steps);
  EXPECT_GE(s.input_slot, 0);
  EXPECT_GE(s.hidden_slot, 0);
  EXPECT_GE(s.logits_slot, 0);

  int begin_layers = 0;
  bool saw_last_rows = false;
  for (const ScheduleStep& step : AllSteps(s)) {
    if (step.kind == StepKind::kBeginLayer) {
      ++begin_layers;
    }
    if (step.kind == StepKind::kLastRows) {
      saw_last_rows = true;
      EXPECT_EQ(step.begin, 31);  // single-session: last row only
      EXPECT_EQ(step.end, 32);
    }
  }
  EXPECT_EQ(begin_layers, cfg.num_layers);
  EXPECT_TRUE(saw_last_rows);
  EXPECT_FALSE(s.Summary().empty());
}

TEST(ScheduleTest, FusedScheduleEmitsSlicesAndFewerMatmuls) {
  const ModelConfig cfg = ModelConfig::Tiny();
  Graph g = OptimizedGraph(cfg, 32, /*fuse_qkv=*/true);
  NpuPolicy policy;
  auto placed = PlaceGraph(g, Phase::kPrefill, &policy);
  ASSERT_TRUE(placed.ok());
  auto sched = CompileSchedule(placed.value());
  ASSERT_TRUE(sched.ok()) << sched.status().ToString();

  const CompiledSchedule& s = sched.value();
  EXPECT_EQ(s.fused_qkv_steps, cfg.num_layers);
  EXPECT_EQ(s.matmul_steps, cfg.num_layers * 5 + 1);
  int slices = 0;
  for (const ScheduleStep& step : AllSteps(s)) {
    if (step.kind == StepKind::kSliceCols) {
      ++slices;
    }
    if (step.kind == StepKind::kMatmul && step.site == MatmulSite::kQkv) {
      EXPECT_EQ(step.weight_refs.size(), 3u);
      ASSERT_EQ(step.npu_graphs.size(), 1u);
      EXPECT_EQ(step.npu_graphs[0].k, cfg.q_dim() + 2 * cfg.kv_dim());
    }
  }
  EXPECT_EQ(slices, cfg.num_layers * 3);  // q/k/v views per layer
}

TEST(ScheduleTest, ServingScheduleRunsHeadOverAllRows) {
  const ModelConfig cfg = ModelConfig::Tiny();
  Graph g = OptimizedGraph(cfg, 4, /*fuse_qkv=*/false);
  NpuPolicy policy;
  auto placed = PlaceGraph(g, Phase::kDecode, &policy, /*logits_rows=*/4);
  ASSERT_TRUE(placed.ok());
  auto sched = CompileSchedule(placed.value());
  ASSERT_TRUE(sched.ok());
  EXPECT_EQ(sched.value().logits_rows, 4);
  for (const ScheduleStep& step : AllSteps(sched.value())) {
    if (step.kind == StepKind::kLastRows) {
      EXPECT_EQ(step.begin, 0);  // every row is a session's last position
      EXPECT_EQ(step.end, 4);
    }
  }
}

// The logits tail of a fused round: kLastRows starts at rows - logits_rows
// and the LM-head step runs (and references its NPU graph) at
// m = logits_rows.
TEST(ScheduleTest, LogitsTailIsTheLastLogitsRows) {
  const ModelConfig cfg = ModelConfig::Tiny();
  Graph g = OptimizedGraph(cfg, 32, /*fuse_qkv=*/false);
  NpuPolicy policy;
  auto placed = PlaceGraph(g, Phase::kPrefill, &policy, /*logits_rows=*/7);
  ASSERT_TRUE(placed.ok());
  auto sched = CompileSchedule(placed.value());
  ASSERT_TRUE(sched.ok()) << sched.status().ToString();
  const CompiledSchedule& s = sched.value();
  EXPECT_EQ(s.logits_rows, 7);
  ASSERT_EQ(s.tail.size(), 2u);
  EXPECT_EQ(s.tail[0].kind, StepKind::kLastRows);
  EXPECT_EQ(s.tail[0].begin, 32 - 7);
  EXPECT_EQ(s.tail[0].end, 32);
  EXPECT_EQ(s.tail[1].kind, StepKind::kMatmul);
  EXPECT_EQ(s.tail[1].site, MatmulSite::kLmHead);
  EXPECT_EQ(s.tail[1].shape.m, 7);
  ASSERT_EQ(s.tail[1].npu_graphs.size(), 1u);
  EXPECT_EQ(s.tail[1].npu_graphs[0].m, 7);
  EXPECT_EQ(s.logits_slot, s.tail[1].out);
  for (const ScheduleStep& step : *s.body) {
    EXPECT_NE(step.kind, StepKind::kLastRows);
    EXPECT_FALSE(step.kind == StepKind::kMatmul &&
                 step.site == MatmulSite::kLmHead);
  }
}

// Re-targeting the logits tail shares the body and yields the schedule a
// full compile at that logits-row count produces.
TEST(ScheduleTest, WithLogitsRowsSharesBodyAndMatchesFullCompile) {
  const ModelConfig cfg = ModelConfig::Tiny();
  Graph g = OptimizedGraph(cfg, 32, /*fuse_qkv=*/false);
  NpuPolicy policy;
  auto one = CompileSchedule(PlaceGraph(g, Phase::kPrefill, &policy).value());
  auto seven = CompileSchedule(
      PlaceGraph(g, Phase::kPrefill, &policy, /*logits_rows=*/7).value());
  ASSERT_TRUE(one.ok() && seven.ok());
  auto retargeted = WithLogitsRows(one.value(), 7, &policy);
  ASSERT_TRUE(retargeted.ok()) << retargeted.status().ToString();
  const CompiledSchedule& r = retargeted.value();
  EXPECT_EQ(r.body.get(), one.value().body.get());  // shared, not copied
  EXPECT_EQ(r.logits_rows, 7);
  EXPECT_EQ(r.Summary(), seven.value().Summary());
  ASSERT_EQ(r.tail.size(), seven.value().tail.size());
  for (size_t i = 0; i < r.tail.size(); ++i) {
    EXPECT_EQ(r.tail[i].begin, seven.value().tail[i].begin);
    EXPECT_EQ(r.tail[i].out, seven.value().tail[i].out);
    EXPECT_EQ(r.tail[i].shape.m, seven.value().tail[i].shape.m);
    EXPECT_EQ(r.tail[i].npu_graphs.size(),
              seven.value().tail[i].npu_graphs.size());
  }
  EXPECT_FALSE(WithLogitsRows(one.value(), 0, &policy).ok());
  EXPECT_FALSE(WithLogitsRows(one.value(), 33, &policy).ok());
}

}  // namespace
}  // namespace heterollm::graph
