#ifndef ESDB_CLUSTER_QUERY_COORDINATOR_H_
#define ESDB_CLUSTER_QUERY_COORDINATOR_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "balancer/monitor.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "query/executor.h"
#include "query/optimizer.h"
#include "routing/router.h"
#include "storage/translog.h"

namespace esdb {

// The query coordinator of Section 3.2, shared by both cluster front-
// ends (Esdb, DistributedEsdb): route by tenant, normalize, plan, pin
// one snapshot per target shard, cost the plan against those
// snapshots, fan out, merge and — for row queries — fetch only the
// global winners. EXPLAIN and the row selection behind UPDATE/DELETE
// run the same pipeline. A front-end binds its spec, routing policy
// and a function returning shard s's primary snapshot; each call
// lends a planner, an optional pool and an optional filter cache.
// Thread-safe.
class QueryCoordinator {
 public:
  using SnapshotFn = std::function<SegmentSnapshot(ShardId)>;

  // What one call borrows from its front-end.
  struct Call {
    PlannerOptions planner;
    std::shared_ptr<ThreadPool> pool = nullptr;  // pinned; null = serial
    // Keys on (shard id, shard-local segment id): only sound while
    // every shard id keeps naming the same store.
    FilterCache* cache = nullptr;
    TierAdmission* admission = nullptr;  // RecordQuery per target shard
  };

  // `two_phase`: row queries merge row refs globally and fetch only
  // the winners; otherwise they run single-phase like aggregates.
  QueryCoordinator(const IndexSpec* spec, const RoutingPolicy* routing,
                   bool two_phase, SnapshotFn snapshot)
      : spec_(*spec), routing_(*routing), two_phase_(two_phase),
        snapshot_(std::move(snapshot)) {}

  [[nodiscard]] Result<QueryResult> Execute(const Query& query,
                                            const Call& call);
  // EXPLAIN: the full front-end trace of a SELECT — parsed form,
  // normalized WHERE (Xdriver4ES CNF + predicate merge), the ES-DSL
  // document, target shard fan-out, and the physical plan. With the
  // cost model on it also runs the query on the snapshots it costed
  // and prints estimated vs actual cardinality (plus group_lookups
  // for a GROUP BY).
  [[nodiscard]] Result<std::string> Explain(std::string_view sql,
                                            const Call& call);
  // SQL DML. INSERT applies its rows; UPDATE/DELETE select the
  // affected rows through Execute, then route one write op per record
  // through `apply` (creation-time rule matching sends each op to the
  // record's original shard). Returns the number of affected rows.
  // Near-real-time caveat: only refreshed rows are visible to the
  // WHERE selection.
  [[nodiscard]] Result<uint64_t> ExecuteDml(
      const DmlStatement& statement, const Call& call,
      const std::function<Status(const WriteOp&)>& apply);

  // Fan-out and executor counters of the most recently finished
  // Execute (EXPLAIN prints its own).
  struct LastQuery {
    uint32_t subqueries = 0;
    ExecStats stats;
  };
  LastQuery last_query() const;

 private:
  struct Prepared;
  // Route, normalize, plan, pin and cost: everything before fan-out.
  Prepared Prepare(const Query& query, const PlannerOptions& planner) const;
  // Fan-out, merge and fetch over `prepared`'s pinned snapshots.
  Result<QueryResult> Run(const Query& query, const Prepared& prepared,
                          const Call& call, ExecStats* stats) const;

  const IndexSpec& spec_;
  const RoutingPolicy& routing_;
  const bool two_phase_;
  const SnapshotFn snapshot_;
  mutable Mutex stats_mu_;  // leaf: guards only last_
  LastQuery last_ GUARDED_BY(stats_mu_);
};

}  // namespace esdb

#endif  // ESDB_CLUSTER_QUERY_COORDINATOR_H_
