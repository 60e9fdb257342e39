// Task-DAG layer tests: TaskGraph release semantics, the single-replica
// ServeTasks driver, stage-aware priority admission, and the fleet driver.
//
// The load-bearing claims: (1) a stage is released only after every parent
// completed plus its pause, and emitted arrivals stay monotone even when
// completions are observed out of global time order; (2) a multi-turn
// session re-entering with a grown prefix hits the prefix cache for
// exactly the prior turn's committed prompt; (3) under priority admission
// an in-flight task's later stages admit ahead of fresh roots, cutting the
// task's end-to-end latency vs FIFO; (4) task metrics are deterministic;
// (5) Cluster::ServeTasks keeps a session's generate/resume stages on the
// replica holding its KV via prefix affinity.

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/engine_registry.h"
#include "src/model/kv_cache.h"
#include "src/serve/cluster/cluster.h"
#include "src/serve/cluster/cluster_metrics.h"
#include "src/serve/iteration_scheduler.h"
#include "src/serve/replica.h"
#include "src/serve/request_queue.h"
#include "src/serve/serving_metrics.h"
#include "src/serve/task_graph.h"
#include "src/workload/task_trace.h"

namespace heterollm::serve {
namespace {

using model::ExecutionMode;
using model::KvCache;
using model::ModelConfig;
using model::ModelWeights;
using workload::StageKind;
using workload::TaskSpec;
using workload::TaskStage;

ReplicaOptions BaseOptions(const std::string& name) {
  ReplicaOptions ropts;
  ropts.name = name;
  ropts.platform = core::PlatformOptionsFor("Hetero-tensor");
  return ropts;
}

std::unique_ptr<Replica> MakeReplica(const ModelWeights& weights,
                                     const ReplicaOptions& ropts) {
  StatusOr<std::unique_ptr<Replica>> replica = Replica::Create(ropts, &weights);
  HCHECK(replica.ok());
  return std::move(replica).value();
}

std::vector<int32_t> Tokens(int n, int32_t start) {
  std::vector<int32_t> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    out.push_back(start + i);
  }
  return out;
}

TaskStage Stage(StageKind kind, int prompt_len, int decode_len,
                std::vector<int> deps = {}, MicroSeconds pause = 0,
                std::vector<int32_t> tokens = {}) {
  TaskStage s;
  s.kind = kind;
  s.prompt_len = prompt_len;
  s.decode_len = decode_len;
  s.depends_on = std::move(deps);
  s.pause_us = pause;
  s.prompt_tokens = std::move(tokens);
  return s;
}

// ---------------------------------------------------------------------------
// TaskGraph release semantics (no replica)

TEST(TaskGraphTest, ReleasesStagesOnlyWhenParentsComplete) {
  TaskSpec task;
  task.task_id = 0;
  task.session_id = 0;
  task.arrival = 0;
  task.stages.push_back(Stage(StageKind::kGenerate, 64, 8));
  task.stages.push_back(
      Stage(StageKind::kResume, 96, 8, /*deps=*/{0}, /*pause=*/100));
  TaskGraph graph({task});
  EXPECT_EQ(graph.total_stages(), 2);

  // Only the root releases, no matter how far `now` is: the child waits on
  // an incomplete parent, so there is no releasable stage behind it.
  std::vector<Request> ready = graph.TakeReady(1e6);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].id, 0);
  EXPECT_EQ(ready[0].stage_id, 0);
  EXPECT_EQ(ready[0].priority, 0);
  EXPECT_EQ(ready[0].session_id, 0);
  EXPECT_EQ(graph.NextReleaseTime(),
            std::numeric_limits<MicroSeconds>::max());
  EXPECT_TRUE(graph.TakeReady(1e6).empty());

  // Parent completes at t=500: the child releases at 500 + 100 pause, with
  // the task's completed-stage count stamped as its priority.
  graph.OnCompleted(0, 500);
  EXPECT_EQ(graph.NextReleaseTime(), 600);
  EXPECT_TRUE(graph.TakeReady(599).empty());
  ready = graph.TakeReady(600);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].id, 1);
  EXPECT_EQ(ready[0].stage_id, 1);
  EXPECT_EQ(ready[0].arrival, 600);
  EXPECT_EQ(ready[0].priority, 1);
  ASSERT_EQ(ready[0].depends_on.size(), 1u);
  EXPECT_EQ(ready[0].depends_on[0], 0);

  EXPECT_FALSE(graph.AllDone());
  graph.OnCompleted(1, 700);
  EXPECT_TRUE(graph.AllDone());
}

TEST(TaskGraphTest, ClampsEmittedArrivalsMonotone) {
  // Two 2-stage tasks. Completions are observed out of global time order —
  // the multi-replica co-simulation does this (replica rounds are coarse) —
  // yet every emitted arrival must be non-decreasing for Submit.
  std::vector<TaskSpec> tasks(2);
  for (int t = 0; t < 2; ++t) {
    tasks[t].task_id = t;
    tasks[t].session_id = t;
    tasks[t].arrival = 0;
    tasks[t].stages.push_back(Stage(StageKind::kGenerate, 64, 8));
    tasks[t].stages.push_back(Stage(StageKind::kResume, 96, 8, {0}));
  }
  TaskGraph graph(std::move(tasks));
  EXPECT_EQ(graph.TakeReady(0).size(), 2u);  // both roots, ids 0 and 2

  graph.OnCompleted(2, 1000);  // task1 root, observed first
  std::vector<Request> ready = graph.TakeReady(1000);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].arrival, 1000);

  // task0's root "completed at 400" — a replica further behind in virtual
  // time. Its child's release (400) precedes the last emitted arrival
  // (1000), so the emission clamps.
  graph.OnCompleted(0, 400);
  ready = graph.TakeReady(1000);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].task_id, 0);
  EXPECT_EQ(ready[0].arrival, 1000);
}

// ---------------------------------------------------------------------------
// Single-replica ServeTasks

TEST(ServeTasksTest, MultiTurnReentryHitsPrefixCacheForGrownPrefix) {
  const ModelConfig cfg = ModelConfig::InternLM1_8B();
  ModelWeights weights = ModelWeights::Create(cfg, ExecutionMode::kSimulate);

  // Turn 2's prompt extends turn 1's 256-token prompt by 64 new tokens —
  // the grown-prefix re-entry. 256 is block-aligned (16-token blocks), so
  // the cache serves exactly the prior prompt.
  const std::vector<int32_t> turn1 = Tokens(256, 1000);
  std::vector<int32_t> turn2 = turn1;
  const std::vector<int32_t> grown = Tokens(64, 9000);
  turn2.insert(turn2.end(), grown.begin(), grown.end());

  TaskSpec task;
  task.task_id = 0;
  task.session_id = 0;
  task.arrival = 0;
  task.stages.push_back(Stage(StageKind::kGenerate, 256, 4, {}, 0, turn1));
  task.stages.push_back(Stage(StageKind::kResume, 320, 4, {0}, 0, turn2));

  ReplicaOptions ropts = BaseOptions("r0");
  ropts.scheduler.enable_prefix_cache = true;
  std::unique_ptr<Replica> replica = MakeReplica(weights, ropts);

  TaskGraph graph({task});
  const ServingMetrics m = ServeTasks(*replica, graph);

  EXPECT_TRUE(graph.AllDone());
  ASSERT_EQ(m.tasks.size(), 1u);
  ASSERT_EQ(m.tasks[0].stages.size(), 2u);
  const StageMetrics& s0 = m.tasks[0].stages[0];
  const StageMetrics& s1 = m.tasks[0].stages[1];
  EXPECT_GT(s0.completion, 0);
  EXPECT_GT(s1.completion, s0.completion);
  // Turn 2 released the instant turn 1 completed (no pause), and admitted
  // no earlier than its release.
  EXPECT_EQ(s1.released, s0.completion);
  EXPECT_GE(s1.admitted, s1.released);
  // The whole prior prompt — and nothing else — came from the cache.
  EXPECT_EQ(m.prefix_hit_tokens, 256);
  EXPECT_EQ(m.prefilled_tokens, 256 + 320);
}

TEST(ServeTasksTest, AgenticTraceCompletesInDependencyOrderUnderPreemption) {
  const ModelConfig cfg = ModelConfig::InternLM1_8B();
  ModelWeights weights = ModelWeights::Create(cfg, ExecutionMode::kSimulate);

  Rng rng(7);
  workload::AgenticTraceOptions topts;
  topts.tasks = 3;
  topts.mean_interarrival_us = 2e4;  // overlapping sessions
  topts.context_min = 64;
  topts.context_max = 128;
  topts.system_prompt_len = 64;
  const std::vector<TaskSpec> trace =
      workload::SyntheticAgenticTrace(rng, topts);

  ReplicaOptions ropts = BaseOptions("r0");
  ropts.scheduler.enable_prefix_cache = true;
  ropts.scheduler.max_decode_batch = 2;
  // Tight budget: concurrent sessions cannot all hold KV, forcing
  // preemptions — dependency release must still hold.
  ropts.scheduler.kv_budget_bytes = KvCache::BytesForTokens(cfg, 1024);
  std::unique_ptr<Replica> replica = MakeReplica(weights, ropts);

  TaskGraph graph(trace);
  const ServingMetrics m = ServeTasks(*replica, graph);

  EXPECT_TRUE(graph.AllDone());
  ASSERT_EQ(m.tasks.size(), trace.size());
  for (size_t t = 0; t < m.tasks.size(); ++t) {
    const TaskMetrics& task = m.tasks[t];
    ASSERT_EQ(task.stages.size(), trace[t].stages.size());
    for (size_t s = 0; s < task.stages.size(); ++s) {
      const StageMetrics& stage = task.stages[s];
      EXPECT_GT(stage.completion, 0);
      EXPECT_GE(stage.admitted, stage.released);
      // A stage never released (or admitted) before every parent finished
      // plus its pause — evictions may delay it, never reorder it.
      for (int parent : trace[t].stages[s].depends_on) {
        const StageMetrics& p = task.stages[static_cast<size_t>(parent)];
        EXPECT_GE(stage.released,
                  p.completion + trace[t].stages[s].pause_us);
      }
    }
    EXPECT_EQ(task.completion, task.stages.back().completion);
  }
  // Cross-turn re-entry rode the cache.
  EXPECT_GT(m.prefix_hit_tokens, 0);
}

TEST(ServeTasksTest, PriorityAdmissionShortensInFlightTaskLatency) {
  const ModelConfig cfg = ModelConfig::InternLM1_8B();
  ModelWeights weights = ModelWeights::Create(cfg, ExecutionMode::kSimulate);

  // Task 0 is a two-stage chain; tasks 1..6 are fresh single-stage roots
  // all competing at t=0. The KV budget (20 blocks) fits one root's
  // 17-block footprint at a time, so a waiting queue forms: FIFO puts
  // task 0's second stage (released only after stage one completed) behind
  // every queued root; priority admission (completed-stages stamp: 1 vs 0)
  // jumps it ahead.
  const auto make_trace = [] {
    std::vector<TaskSpec> trace;
    TaskSpec chain;
    chain.task_id = 0;
    chain.session_id = 0;
    chain.arrival = 0;
    chain.stages.push_back(Stage(StageKind::kGenerate, 128, 8));
    chain.stages.push_back(Stage(StageKind::kResume, 160, 8, {0}));
    trace.push_back(chain);
    for (int t = 1; t <= 6; ++t) {
      TaskSpec root;
      root.task_id = t;
      root.session_id = t;
      root.arrival = 0;
      root.stages.push_back(Stage(StageKind::kGenerate, 256, 16));
      trace.push_back(root);
    }
    return trace;
  };

  const auto run = [&](AdmissionPolicy admission) {
    ReplicaOptions ropts = BaseOptions("r0");
    ropts.scheduler.max_decode_batch = 2;
    ropts.scheduler.kv_budget_bytes = KvCache::BytesForTokens(cfg, 320);
    ropts.scheduler.admission = admission;
    std::unique_ptr<Replica> replica = MakeReplica(weights, ropts);
    TaskGraph graph(make_trace());
    ServingMetrics m = ServeTasks(*replica, graph);
    EXPECT_TRUE(graph.AllDone());
    return m;
  };

  const ServingMetrics fifo = run(AdmissionPolicy::kFifo);
  const ServingMetrics prio = run(AdmissionPolicy::kPriority);
  ASSERT_EQ(fifo.tasks.size(), 7u);
  ASSERT_EQ(prio.tasks.size(), 7u);
  EXPECT_LT(prio.tasks[0].e2e_latency(), fifo.tasks[0].e2e_latency());
  // Same total work either way — priority reorders, never drops.
  EXPECT_EQ(fifo.requests.size(), prio.requests.size());
}

TEST(ServeTasksTest, TaskMetricsAreDeterministic) {
  const ModelConfig cfg = ModelConfig::InternLM1_8B();
  ModelWeights weights = ModelWeights::Create(cfg, ExecutionMode::kSimulate);

  const auto run_once = [&] {
    Rng rng(21);
    workload::AgenticTraceOptions topts;
    topts.tasks = 2;
    topts.context_min = 64;
    topts.context_max = 96;
    ReplicaOptions ropts = BaseOptions("r0");
    ropts.scheduler.enable_prefix_cache = true;
    std::unique_ptr<Replica> replica = MakeReplica(weights, ropts);
    TaskGraph graph(workload::SyntheticAgenticTrace(rng, topts));
    return ServeTasks(*replica, graph).ToJson();
  };

  const std::string a = run_once();
  const std::string b = run_once();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// Fleet driver

TEST(ClusterServeTasksTest, SessionStagesFollowTheirKvAcrossTheFleet) {
  const ModelConfig cfg = ModelConfig::InternLM1_8B();
  ModelWeights weights = ModelWeights::Create(cfg, ExecutionMode::kSimulate);

  Rng rng(5);
  workload::AgenticTraceOptions topts;
  topts.tasks = 3;
  topts.mean_interarrival_us = 3e4;
  topts.context_min = 64;
  topts.context_max = 128;
  const std::vector<TaskSpec> trace =
      workload::SyntheticAgenticTrace(rng, topts);

  std::vector<std::unique_ptr<Replica>> replicas;
  for (int i = 0; i < 2; ++i) {
    ReplicaOptions ropts = BaseOptions("r" + std::to_string(i));
    ropts.scheduler.enable_prefix_cache = true;
    replicas.push_back(MakeReplica(weights, ropts));
  }
  ClusterOptions copts;
  copts.router.policy = RoutingPolicy::kPrefixAffinity;
  Cluster cluster(std::move(replicas), copts);

  TaskGraph graph(trace);
  const ClusterMetrics out = cluster.ServeTasks(graph);

  EXPECT_TRUE(graph.AllDone());
  EXPECT_EQ(out.offered, graph.total_stages());
  EXPECT_EQ(out.rejected, 0);
  ASSERT_EQ(out.tasks.size(), trace.size());

  // request id -> replica index that served it.
  std::map<int, size_t> served_on;
  for (size_t i = 0; i < out.replicas.size(); ++i) {
    for (const RequestMetrics& r : out.replicas[i].metrics.requests) {
      EXPECT_GT(r.completion, 0);
      served_on[r.id] = i;
    }
  }
  ASSERT_EQ(served_on.size(), static_cast<size_t>(graph.total_stages()));

  // Every generate/resume stage of a session lands on one replica: after
  // the first, the session prefix lives only there, so the live-probe
  // affinity score singles it out.
  int64_t hit_tokens = 0;
  for (size_t t = 0; t < trace.size(); ++t) {
    std::set<size_t> session_replicas;
    for (size_t s = 0; s < trace[t].stages.size(); ++s) {
      const StageKind kind = trace[t].stages[s].kind;
      if (kind != StageKind::kGenerate && kind != StageKind::kResume) {
        continue;
      }
      session_replicas.insert(served_on[out.tasks[t].stages[s].request_id]);
    }
    EXPECT_EQ(session_replicas.size(), 1u) << "task " << t;
  }
  for (const ClusterMetrics::ReplicaRow& row : out.replicas) {
    hit_tokens += row.metrics.prefix_hit_tokens;
  }
  EXPECT_GT(hit_tokens, 0);
}

}  // namespace
}  // namespace heterollm::serve
