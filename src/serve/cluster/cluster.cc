#include "src/serve/cluster/cluster.h"

#include <limits>
#include <utility>

#include "src/common/status.h"

namespace heterollm::serve {

Cluster::Cluster(std::vector<std::unique_ptr<Replica>> replicas,
                 const ClusterOptions& options)
    : replicas_(std::move(replicas)), options_(options) {
  HCHECK_MSG(!replicas_.empty(), "cluster needs at least one replica");
  for (const std::unique_ptr<Replica>& r : replicas_) {
    HCHECK(r != nullptr);
  }
}

namespace {

constexpr MicroSeconds kNever = std::numeric_limits<MicroSeconds>::max();

}  // namespace

std::vector<Replica*> Cluster::OpenWindows() {
  std::vector<Replica*> raw;
  raw.reserve(replicas_.size());
  for (const std::unique_ptr<Replica>& r : replicas_) {
    r->BeginWindow();
    raw.push_back(r.get());
  }
  return raw;
}

Replica* Cluster::EarliestReplica() const {
  Replica* pick = nullptr;
  for (const std::unique_ptr<Replica>& r : replicas_) {
    if (r->has_work() && (pick == nullptr || r->now() < pick->now())) {
      pick = r.get();
    }
  }
  return pick;
}

ClusterMetrics Cluster::CloseWindows(const ClusterRouter& router) {
  ClusterMetrics out;
  out.slo = options_.slo;
  out.offered = router.offered();
  out.rejected = router.rejected();
  out.replicas.reserve(replicas_.size());
  for (const std::unique_ptr<Replica>& r : replicas_) {
    ClusterMetrics::ReplicaRow row;
    row.name = r->name();
    row.device = r->device();
    row.metrics = r->EndWindow();
    out.replicas.push_back(std::move(row));
  }
  return out;
}

ClusterMetrics Cluster::Serve(const RequestQueue& queue) {
  const std::vector<Request>& requests = queue.requests();
  for (size_t i = 1; i < requests.size(); ++i) {
    HCHECK_MSG(requests[i].arrival >= requests[i - 1].arrival,
               "cluster trace must be sorted by arrival");
  }
  ClusterRouter router(OpenWindows(), options_.router);

  size_t next_arrival = 0;
  const auto arrival_time = [&]() -> MicroSeconds {
    return next_arrival < requests.size() ? requests[next_arrival].arrival
                                          : kNever;
  };
  while (next_arrival < requests.size() || router.pending() > 0 ||
         EarliestReplica() != nullptr) {
    Replica* behind = EarliestReplica();
    if (behind != nullptr && behind->now() <= arrival_time()) {
      behind->StepRound();
    } else if (next_arrival < requests.size()) {
      router.Offer(requests[next_arrival++]);
    } else {
      // Pending requests, idle replicas, no arrivals left: the only way
      // forward is a dispatch, and one must land — idle replicas have load
      // 0 and max_replica_queue >= 1, so the head always has a taker.
      const int dispatched = router.DispatchReady();
      HCHECK_MSG(dispatched > 0,
                 "cluster stalled: pending requests but no dispatch");
      continue;
    }
    // Refresh routing after every event so dispatch decisions read replica
    // load and prefix estimates at the current virtual time.
    router.DispatchReady();
  }
  return CloseWindows(router);
}

ClusterMetrics Cluster::ServeTasks(TaskGraph& graph) {
  HCHECK_MSG(graph.released_stages() == 0,
             "ServeTasks needs a fresh TaskGraph (nothing released yet)");
  ClusterRouter router(OpenWindows(), options_.router);

  // Same earliest-event interleaving as Serve, with the arrival trace
  // replaced by the graph's release frontier: a replica round runs only
  // while the furthest-behind replica's clock has not passed the next
  // release, so no replica consumes simulated time that should have seen a
  // stage released (and routed) first. Each round's completions feed the
  // graph before the next event, which may pull the frontier earlier.
  while (!graph.AllDone()) {
    Replica* behind = EarliestReplica();
    const MicroSeconds release = graph.NextReleaseTime();
    if (behind != nullptr && behind->now() <= release) {
      behind->StepRound();
      for (const CompletionEvent& done : behind->DrainCompletions()) {
        graph.OnCompleted(done.id, done.time);
      }
    } else if (release < kNever) {
      for (const Request& r : graph.TakeReady(release)) {
        HCHECK_MSG(router.Offer(r),
                   "task stage rejected by admission control — a dropped "
                   "stage deadlocks its task; raise max_pending");
      }
    } else if (router.pending() > 0) {
      // Pending stages, idle replicas, nothing releasable: the only way
      // forward is a dispatch, and one must land — idle replicas have load
      // 0 and max_replica_queue >= 1, so the head always has a taker.
      const int dispatched = router.DispatchReady();
      HCHECK_MSG(dispatched > 0,
                 "cluster stalled: pending stages but no dispatch");
      continue;
    } else {
      HCHECK_MSG(false,
                 "task graph deadlocked: no replica has work, no stage is "
                 "releasable, nothing pending");
    }
    router.DispatchReady();
  }

  ClusterMetrics out = CloseWindows(router);
  std::vector<RequestMetrics> all_requests;
  for (const ClusterMetrics::ReplicaRow& row : out.replicas) {
    all_requests.insert(all_requests.end(), row.metrics.requests.begin(),
                        row.metrics.requests.end());
  }
  out.tasks = graph.BuildTaskMetrics(all_requests);
  return out;
}

}  // namespace heterollm::serve
