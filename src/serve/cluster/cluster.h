// Multi-SoC cluster driver: N heterogeneous replicas co-simulated on one
// unified virtual clock.
//
// Each `Replica` owns an independent `Platform`, so each has its own
// discrete-event clock; the cluster makes them one simulation by always
// advancing the *earliest* pending event next. The event loop interleaves
// two event sources:
//
//   * the arrival trace — at a request's arrival instant it is offered to
//     the router (admission control + routing policy, cluster_router.h);
//   * replica rounds — the replica whose local clock is furthest behind
//     (and has work) runs one scheduling round, advancing its own clock.
//
// A replica round runs only when that replica's clock is <= the next
// arrival, and arrivals are offered in trace order, so no replica ever
// consumes simulated time that should have seen an arrival or a routing
// decision first — the interleaving any single-clock simulator would
// produce. Routing decisions (`DispatchReady`) are refreshed after every
// event, so load and prefix-affinity estimates are always read at the
// decision's virtual time.
//
// With one replica and an always-admitting router this serves exactly the
// work `Replica::Serve` would, with one online-vs-oracle timing caveat: the
// batch path pre-populates the arrival list, so its prefill-first admission
// loop can admit a request whose arrival instant lands *inside* the current
// scheduling round (a prefill advanced the clock past it). The online
// driver cannot submit a request before it arrives, so such a request joins
// at the next round boundary — a sub-round shift of that prefill, never
// reordered or lost work.

#ifndef SRC_SERVE_CLUSTER_CLUSTER_H_
#define SRC_SERVE_CLUSTER_CLUSTER_H_

#include <memory>
#include <vector>

#include "src/serve/cluster/cluster_metrics.h"
#include "src/serve/cluster/cluster_router.h"
#include "src/serve/replica.h"
#include "src/serve/request_queue.h"
#include "src/serve/task_graph.h"

namespace heterollm::serve {

struct ClusterOptions {
  RouterOptions router;
  // Per-request SLO scored into ClusterMetrics (goodput). Purely an
  // accounting input — the scheduler does not deadline-schedule.
  SloSpec slo;
};

class Cluster {
 public:
  // Takes ownership of the replicas (each already constructed from its own
  // SocSpec/PlatformOptions; heterogeneity lives there).
  Cluster(std::vector<std::unique_ptr<Replica>> replicas,
          const ClusterOptions& options);

  // Serves the whole arrival trace (requests in non-decreasing arrival
  // order) to completion across the fleet and returns the cluster metrics.
  // Rejected offers (bounded pending queue) are counted, not served.
  ClusterMetrics Serve(const RequestQueue& queue);

  // Serves a task DAG to completion across the fleet. Stages release
  // through `graph` as their parents complete — completions drain from
  // whichever replica ran them — and the router places each released
  // stage; under kPrefixAffinity a session's later stages follow the
  // replica holding its KV (session-sticky + live probes). The graph must
  // be fresh (nothing released). Unlike `Serve`, admission must not drop
  // work — a dropped stage would deadlock its task — so an offer bouncing
  // off a full pending queue aborts; size `max_pending` for the trace.
  // The fleet-wide task rollup lands in `ClusterMetrics::tasks`.
  ClusterMetrics ServeTasks(TaskGraph& graph);

  const std::vector<std::unique_ptr<Replica>>& replicas() const {
    return replicas_;
  }
  const ClusterOptions& options() const { return options_; }

 private:
  // Opens a serving window on every replica; returns the router's view.
  std::vector<Replica*> OpenWindows();
  // The replica furthest behind in virtual time among those with work:
  // stepping it is the earliest replica-side event. Null when none has work.
  Replica* EarliestReplica() const;
  // Closes every replica's window into one row each, plus the router's
  // offered/rejected counts.
  ClusterMetrics CloseWindows(const ClusterRouter& router);

  std::vector<std::unique_ptr<Replica>> replicas_;
  ClusterOptions options_;
};

}  // namespace heterollm::serve

#endif  // SRC_SERVE_CLUSTER_CLUSTER_H_
