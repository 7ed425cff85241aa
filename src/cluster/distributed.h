#ifndef ESDB_CLUSTER_DISTRIBUTED_H_
#define ESDB_CLUSTER_DISTRIBUTED_H_

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "balancer/shard_heat.h"
#include "cluster/migration.h"
#include "cluster/query_coordinator.h"
#include "cluster/shard_allocator.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "query/executor.h"
#include "query/optimizer.h"
#include "replication/replication.h"
#include "routing/router.h"

namespace esdb {

// Multi-node ESDB cluster harness: the Figure 3 architecture in one
// process. Shards (each a primary + physical replica pair) are placed
// on named nodes by the shard allocator; writes route through the
// configured policy to the shard's primary; queries fan out per the
// routing policy and aggregate. Nodes can join, leave gracefully, or
// fail — on failure, replicas of the dead node's primaries promote
// (translog-tail replay) and lost replicas are rebuilt on surviving
// nodes, exactly the recovery story of Sections 3.3 and 5.2.
//
// Membership operations (Add/Remove/FailNode) are externally
// single-threaded ("nodes" are failure domains, not threads), but the
// data path is not phased: queries run concurrently with Apply/DML
// and with RefreshAll — every shard publishes its searchable state
// (segments + copy-on-write tombstone overlays) as immutable epochs.
// RefreshAll fans refresh+replication out over an internal pool when
// maintenance_threads > 0 — one task per shard, preserving the
// single-writer-per-shard invariant.
class DistributedEsdb : public MigrationHost {
 public:
  struct Options {
    uint32_t num_shards = 64;
    RoutingKind routing = RoutingKind::kDynamic;
    uint32_t double_hash_offset = 8;
    IndexSpec spec = IndexSpec::TransactionLogDefault();
    ShardStore::Options store;
    PlannerOptions planner;
    // Refresh/merge/replication parallelism for RefreshAll (0 =
    // serial, matching the query_threads convention in Esdb).
    uint32_t maintenance_threads = 0;
    // Live shard migration knobs (tentpole of DESIGN.md §13).
    ShardHeatTracker::Options heat;
    MigrationPlanner::Options migration_planner;
    ShardMigrator::Options migration;
  };

  explicit DistributedEsdb(Options options);

  // --- Membership ------------------------------------------------------

  // Registers a node. Once two nodes exist, shards are allocated; later
  // joins trigger rebalancing moves (replicas rebuilt at their new
  // node; primaries hand over in place).
  [[nodiscard]] Status AddNode(NodeId node);
  // Graceful departure: shards move off first.
  [[nodiscard]] Status RemoveNode(NodeId node);
  // Crash: primaries on the node fail over to their replicas; replicas
  // on the node are rebuilt elsewhere. The node leaves the cluster.
  [[nodiscard]] Status FailNode(NodeId node);

  size_t num_nodes() const { return allocator_.num_nodes(); }
  bool ready() const { return allocator_.allocated(); }
  NodeId PrimaryNodeOf(ShardId shard) const {
    return allocator_.Of(shard).primary;
  }
  NodeId ReplicaNodeOf(ShardId shard) const {
    return allocator_.Of(shard).replica;
  }

  // --- Data path ---------------------------------------------------------

  [[nodiscard]] Status Apply(const WriteOp& op);
  [[nodiscard]] Status Insert(Document doc) {
    return Apply(WriteOp{OpType::kInsert, std::move(doc)});
  }
  void RefreshAll();

  // Resizes the refresh/replication pool (0 = serial). Same swap
  // discipline as Esdb::SetMaintenanceThreads: the pool lives behind
  // a mutex-guarded shared_ptr that RefreshAll pins for its full
  // fan-out, so an in-flight round keeps the old pool alive.
  void SetMaintenanceThreads(uint32_t n);
  uint32_t maintenance_threads() const { return options_.maintenance_threads; }

  // SQL through the same query coordinator as Esdb. DML writes go
  // through Apply, and so through the migrator.
  [[nodiscard]] Result<QueryResult> ExecuteSql(std::string_view sql);
  [[nodiscard]] Result<std::string> ExplainSql(std::string_view sql);
  [[nodiscard]] Result<uint64_t> ExecuteDmlSql(std::string_view sql);

  // --- Live shard migration ---------------------------------------------

  // Manually begins migrating `shard`'s primary to node `to` (the
  // balancer path goes through MaybeMigrate). The migration is then
  // advanced by DriveMigrations().
  [[nodiscard]] Status StartMigration(ShardId shard, NodeId to);

  // Advances every in-flight migration until it completes, aborts, or
  // hits a transient (Unavailable) step; cutover counts as a
  // membership operation and is therefore serialized with
  // Add/Remove/FailNode by the caller, like every other membership
  // op. Returns the number of cutovers performed.
  size_t DriveMigrations();

  // One balancer cycle: decays the heat counters, asks the planner
  // for moves, and starts them. Returns the number started.
  size_t MaybeMigrate();

  MigrationPhase MigrationPhaseOf(ShardId shard) const {
    return migrator_->phase(shard);
  }
  ShardMigrator* migrator() { return migrator_.get(); }
  ShardHeatTracker* heat() { return &heat_; }

  // MigrationHost (called by the migrator with the slot lock held):
  std::shared_ptr<ReplicatedShard> MigrationSource(ShardId shard) override;
  [[nodiscard]] Status InstallMigrated(
      ShardId shard, NodeId to, std::unique_ptr<ShardStore> target) override;

  // --- Introspection -------------------------------------------------------

  DynamicSecondaryHashing* dynamic_routing() { return dynamic_; }
  size_t TotalDocs() const;
  // Searchable docs per node, counting primaries only.
  std::map<NodeId, size_t> DocsByNode() const;
  uint64_t failovers() const { return failovers_; }
  uint64_t replicas_rebuilt() const { return replicas_rebuilt_; }

 private:
  [[nodiscard]] Status CheckReady() const;
  // Copies the shard pointer out under shards_mu_ — the only way the
  // data path reads the table, so a concurrent cutover/failover swap
  // can never free a shard mid-query (the copy pins it).
  std::shared_ptr<ReplicatedShard> ShardAt(ShardId shard) const;

  // Cluster topology is fixed by the constructor; membership
  // operations (AddNode/RemoveNode/FailNode and migration cutover)
  // mutate allocator state and are serialized by the caller, like
  // ShardStore's single-writer contract. pool_mu_ guards only the
  // maintenance pool.
  Options options_;        // lint:unguarded(fixed at construction)
  ShardAllocator allocator_;  // lint:unguarded(membership ops are externally serialized)
  std::unique_ptr<RoutingPolicy> routing_;  // lint:unguarded(fixed at construction)
  DynamicSecondaryHashing* dynamic_ = nullptr;  // lint:unguarded(fixed at construction; owned by routing_)
  // Lent no pool (no query-pool knob) and no filter cache: failover
  // and cutover rebind shard ids, and the cache keys on shard id.
  QueryCoordinator coordinator_;  // lint:unguarded(bindings fixed at construction; internally synchronized)
  // Shard table: shape fixed at construction, but elements are
  // REBOUND by failover and migration cutover while queries/writes
  // run, so every read copies the shared_ptr under this tiny mutex.
  // Leaf lock: taken under the migrator's slot lock (InstallMigrated)
  // and never held while calling into a shard.
  mutable Mutex shards_mu_;
  std::vector<std::shared_ptr<ReplicatedShard>> shards_
      GUARDED_BY(shards_mu_);  // by shard id
  // Null when serial; swapped under pool_mu_ and pinned by RefreshAll.
  mutable Mutex pool_mu_;
  std::shared_ptr<ThreadPool> maintenance_pool_ GUARDED_BY(pool_mu_);
  // Migration telemetry + machinery. The migrator is behind a
  // unique_ptr only because it needs `this` as its MigrationHost.
  ShardHeatTracker heat_;  // lint:unguarded(internally atomic counters)
  MigrationPlanner planner_;  // lint:unguarded(stateless after construction)
  std::unique_ptr<ShardMigrator> migrator_;  // lint:unguarded(fixed at construction; internally synchronized)
  // Atomic: bumped on the (serialized) failover path but read by
  // stats accessors from any thread.
  std::atomic<uint64_t> failovers_{0};
  std::atomic<uint64_t> replicas_rebuilt_{0};
};

}  // namespace esdb

#endif  // ESDB_CLUSTER_DISTRIBUTED_H_
