#ifndef ESDB_CLUSTER_ESDB_H_
#define ESDB_CLUSTER_ESDB_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "balancer/load_balancer.h"
#include "balancer/monitor.h"
#include "balancer/shard_heat.h"
#include "cluster/migration.h"
#include "cluster/query_coordinator.h"
#include "cluster/shard_allocator.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "document/document.h"
#include "query/executor.h"
#include "query/optimizer.h"
#include "replication/replication.h"
#include "routing/router.h"
#include "storage/shard_store.h"
#include "workload/generator.h"

namespace esdb {

// The ESDB cluster (Figure 3) in one process: N shards, each a
// primary ShardStore with an optional physical/logical replica, a
// routing policy, a workload monitor and load balancer (Algorithm 1),
// the query coordinator with its pool and filter cache, hot/cold
// tiering, and — once nodes are named — shard placement, failover and
// live shard migration. This is the *real engine*: writes are
// indexed, SQL is parsed/optimized/executed. Cluster-scale resource
// contention (CPU, queues) is studied separately in sim/cluster_sim.h.
//
// Nodes. An Esdb that never names a node is a single in-process
// instance and accepts work at once. AddNode (which needs
// with_replicas) turns it into a multi-node cluster: shards are placed
// on named nodes by the shard allocator, and from then on writes and
// queries need at least two nodes (replicas live on a different node
// than their primary). A failed node's primaries fail over to their
// replicas (translog-tail replay) and its replicas are rebuilt on the
// survivors, the recovery story of Sections 3.3 and 5.2.
//
// One write path: route -> monitor -> tier admission -> migrator ->
// heat. The migrator sees every acknowledged op of a migrating shard
// (queue or mirror); for an idle shard its Apply is a plain source
// apply. One shard table: by shard id, each slot a shared_ptr that
// failover, migration cutover and InstallShard rebind; every reader
// copies the pointer under a leaf mutex, so a rebind never frees a
// shard mid-query or mid-write.
//
// Thread model: the searchable state of every shard is an epoch-
// published immutable view — segment list AND copy-on-write tombstone
// overlays — so queries are safe to issue from multiple threads
// concurrently with each other, with refresh/merge maintenance
// (RefreshAll), and with Apply/DML/balancing: a DELETE publishes a
// new overlay epoch instead of mutating published state, and a
// balancing cycle publishes a new secondary hashing rule list the
// same way (DynamicSecondaryHashing::UpdateRules; routing matches
// against a pinned list), so no write/read phasing is required
// anywhere. Balancing cycles themselves (RunBalanceCycle,
// InitializeRulesFromStorage) are driven from one maintenance thread
// at a time. Writes stay single-writer per shard; concurrent callers
// of Apply targeting the same shard serialize there, nothing else.
// Membership operations (Add/Remove/FailNode, migration cutover via
// DriveMigrations, InstallShard, Set*Threads) are externally
// serialized ("nodes" are failure domains, not threads).
// With query_threads > 0 each query fans its per-shard subqueries out
// over an internal pool (tenant-scoped queries touching at most two
// shards run inline — the handoff costs more than it buys); with
// maintenance_threads > 0 RefreshAll fans refresh+merge (and the
// replication round) out the same way. See DESIGN.md "Thread model".
class Esdb : public MigrationHost {
 public:
  struct Options {
    uint32_t num_shards = 64;
    RoutingKind routing = RoutingKind::kDynamic;
    uint32_t double_hash_offset = 8;  // s for kDoubleHash
    IndexSpec spec = IndexSpec::TransactionLogDefault();
    ShardStore::Options store;
    PlannerOptions planner;
    // Per-shard replicas (costs memory; most query benches only need
    // primaries). Required by AddNode: failover promotes replicas.
    bool with_replicas = false;
    ReplicationMode replication = ReplicationMode::kPhysical;
    LoadBalancer::Options balancer;
    // Per-segment filter cache for repeated (cacheable) plans.
    bool use_filter_cache = true;
    FilterCache::Options filter_cache;
    // Per-shard subquery parallelism (Section 3.2's concurrent
    // fan-out): 0 = serial in the calling thread (the historical
    // behavior), N > 0 = execute subqueries on an N-thread pool.
    // Results are byte-identical either way; per-shard merge order is
    // fixed by shard ordinal.
    uint32_t query_threads = 0;
    // Refresh/merge parallelism: 0 = RefreshAll walks shards serially
    // (the historical behavior), N > 0 = one refresh+merge task per
    // shard on an N-thread pool. Safe concurrently with queries:
    // each shard publishes its new segment epoch atomically.
    uint32_t maintenance_threads = 0;
    // Hot/cold tiered storage (storage/cold_segment.h). When enabled,
    // every shard store shares one block cache, the write and query
    // paths feed per-shard activity counters, and RunTieringCycle()
    // classifies shards hot/cold — cold shards block-compress their
    // segments at the next merge and serve queries through the cache.
    struct TieringOptions {
      bool enabled = false;
      // Directory for spilled cold files; "" keeps compressed
      // payloads in RAM (still a large footprint win).
      std::string spill_dir;
      // Shared decompressed-block cache budget across all shards.
      size_t block_cache_bytes = 64u << 20;
      TierAdmission::Options admission;
    };
    TieringOptions tiering;
    // Live shard migration (DESIGN.md §13): per-shard heat, the
    // planner that picks moves, and the migrator's copy batching.
    ShardHeatTracker::Options heat;
    MigrationPlanner::Options migration_planner;
    ShardMigrator::Options migration;
  };

  explicit Esdb(Options options);

  // --- Membership ------------------------------------------------------

  // Registers a node (FailedPrecondition without with_replicas). Once
  // two nodes exist, shards are allocated; later joins trigger
  // rebalancing moves (replicas rebuilt at their new node; primaries
  // hand over in place).
  [[nodiscard]] Status AddNode(NodeId node);
  // Graceful departure: shards move off first.
  [[nodiscard]] Status RemoveNode(NodeId node);
  // Crash: primaries on the node fail over to their replicas; replicas
  // on the node are rebuilt elsewhere. The node leaves the cluster.
  [[nodiscard]] Status FailNode(NodeId node);

  size_t num_nodes() const { return allocator_.num_nodes(); }
  bool ready() const { return allocator_.allocated(); }
  // Placement; 0 (no node) until two nodes exist.
  NodeId PrimaryNodeOf(ShardId shard) const {
    return ready() ? allocator_.Of(shard).primary : 0;
  }
  NodeId ReplicaNodeOf(ShardId shard) const {
    return ready() ? allocator_.Of(shard).replica : 0;
  }

  // --- Write path -----------------------------------------------------

  // Routes and applies one write op. The document must carry
  // tenant_id, record_id and created_time.
  [[nodiscard]] Status Apply(const WriteOp& op);

  [[nodiscard]] Status Insert(Document doc) {
    return Apply(WriteOp{OpType::kInsert, std::move(doc)});
  }
  [[nodiscard]] Status Update(Document doc) {
    return Apply(WriteOp{OpType::kUpdate, std::move(doc)});
  }
  // Deletes by routing key (tenant + record + original creation time).
  [[nodiscard]] Status Delete(TenantId tenant, RecordId record, Micros created_time);

  // Makes all buffered writes searchable: one refresh+merge round per
  // shard, plus its replication round when the shard has a replica.
  void RefreshAll();

  // --- Query path -----------------------------------------------------

  // Parses, normalizes, plans and executes a SQL query; fans out to
  // the shards the routing policy names for the query's tenant(s) and
  // aggregates. Queries without a tenant_id equality predicate fan out
  // to all shards.
  [[nodiscard]] Result<QueryResult> ExecuteSql(std::string_view sql);
  [[nodiscard]] Result<QueryResult> Execute(const Query& query);

  // Same, with an explicit planner configuration (used by the
  // optimizer on/off experiments; Figure 17).
  [[nodiscard]] Result<QueryResult> ExecuteSqlWithPlanner(std::string_view sql,
                                            const PlannerOptions& planner);

  // EXPLAIN and SQL DML: see QueryCoordinator::Explain / ExecuteDml.
  // DML writes go through Apply, and so through the migrator.
  [[nodiscard]] Result<std::string> ExplainSql(std::string_view sql);
  [[nodiscard]] Result<uint64_t> ExecuteDmlSql(std::string_view sql);

  // Number of shard subqueries the last Execute performed (Figure 16's
  // cost driver) and its executor counters. Mutex-guarded so
  // concurrent client queries stay race-free; with queries in flight
  // from several threads, "last" means "most recently finished".
  uint32_t last_subqueries() const {
    return coordinator_.last_query().subqueries;
  }
  ExecStats last_stats() const { return coordinator_.last_query().stats; }

  // Resizes the subquery pool (0 = serial). Safe to call while
  // queries are in flight: the pool is swapped through a shared_ptr
  // each query pins for its full duration, so the old pool drains its
  // tasks and is destroyed only after the last in-flight query
  // releases it.
  void SetQueryThreads(uint32_t n);
  uint32_t query_threads() const { return options_.query_threads; }

  // Resizes the refresh/merge pool (0 = serial). Same swap discipline
  // as SetQueryThreads.
  void SetMaintenanceThreads(uint32_t n);
  uint32_t maintenance_threads() const { return options_.maintenance_threads; }

  // Always true: queries run one engine, the slot path of
  // src/query/batch/. Kept only for perfbench/bench.cc, which still
  // reads it; it goes with the next change to the benchmark.
  bool batch_execution() const { return true; }

  // --- Balancing ------------------------------------------------------

  // One balancing cycle (Algorithm 1 runtime phase): drains the
  // monitor, detects hotspots, and commits new secondary hashing rules
  // effective at `effective_time`. Returns the number of rules
  // committed. Only meaningful under kDynamic routing. In the full
  // distributed deployment the commit runs through the consensus
  // protocol (see consensus/ and sim/); here commit is local.
  size_t RunBalanceCycle(Micros effective_time);

  // Initialization phase: seeds rules from current per-tenant storage.
  size_t InitializeRulesFromStorage(Micros effective_time);

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

  // One migration-balancer cycle: asks the planner for moves from the
  // shard heat, starts them, then decays the heat counters. Returns
  // the number started.
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

  // --- Tiering --------------------------------------------------------

  // One tiering admission/eviction cycle: classifies every shard from
  // its decayed write+query activity, flips each store's tier target,
  // and runs the merge pass that performs the actual transitions
  // (demotion compresses, promotion re-inflates). Returns the number
  // of shards now targeted cold. No-op (returns 0) unless
  // options.tiering.enabled.
  size_t RunTieringCycle();

  // Cluster-wide memory accounting: sums every shard's breakdown.
  // resident_bytes is the RAM the searchable state actually holds —
  // the figure tiering exists to shrink.
  ShardSizeBreakdown SizeBreakdownTotal() const;

  BlockCache* block_cache() { return block_cache_.get(); }
  TierAdmission* tier_admission() { return tier_admission_.get(); }

  // --- Introspection ----------------------------------------------------

  const RoutingPolicy& routing() const { return *routing_; }
  DynamicSecondaryHashing* dynamic_routing() { return dynamic_; }
  const DynamicSecondaryHashing* dynamic_routing() const { return dynamic_; }
  uint32_t num_shards() const { return options_.num_shards; }
  FilterCache* filter_cache() { return &filter_cache_; }
  // The shard's current primary store. The pointer stays valid only
  // until the slot is rebound — by FailNode, a migration cutover or
  // InstallShard — so do not hold it across membership operations.
  ShardStore* shard(ShardId id) { return ShardAt(id)->primary(); }
  const ShardStore* shard(ShardId id) const { return ShardAt(id)->primary(); }
  const IndexSpec& spec() const { return options_.spec; }
  WorkloadMonitor* monitor() { return &monitor_; }
  bool with_replicas() const { return options_.with_replicas; }

  // Replaces a shard's primary store (cluster-checkpoint restore); with
  // replicas, the replica is rebuilt from it by peer recovery. Fails
  // while the shard is migrating.
  [[nodiscard]] Status InstallShard(ShardId id, std::unique_ptr<ShardStore> store);

  // Per-shard live doc counts (shard-size distribution, Figure 13d).
  std::vector<size_t> ShardDocCounts() const;
  size_t TotalDocs() const;
  // Searchable docs per node, counting primaries only.
  std::map<NodeId, size_t> DocsByNode() const;
  // Total replica maintenance cost counters (Figure 15 driver).
  ReplicationStats TotalReplicationStats() const;
  uint64_t failovers() const { return failovers_; }
  uint64_t replicas_rebuilt() const { return replicas_rebuilt_; }

 private:
  // OK unless nodes have been named and fewer than two remain placed.
  [[nodiscard]] Status CheckReady() const;
  // Copies the shard pointer out under shards_mu_ — the only way the
  // shard table is read, so a concurrent rebind can never free a
  // shard mid-query (the copy pins it).
  std::shared_ptr<ReplicatedShard> ShardAt(ShardId id) const;
  // A shard around `primary` (null: an empty store), with a replica
  // when options say so.
  std::shared_ptr<ReplicatedShard> MakeShard(
      std::unique_ptr<ShardStore> primary) const;
  // The one place a slot of the shard table changes: InstallShard,
  // failover and migration cutover all come through here.
  void Rebind(ShardId id, std::shared_ptr<ReplicatedShard> shard);
  // Aborts every active migration whose source or target is `node`.
  [[nodiscard]] Status AbortMigrationsTouching(NodeId node);
  // Rebuilds the replica of every shard a placement move relocated.
  [[nodiscard]] Status RebuildMovedReplicas(
      const std::vector<ShardAllocator::Move>& moves);
  // A coordinator call lent this instance's query pool, filter cache
  // and tier admission.
  QueryCoordinator::Call QueryCall(const PlannerOptions& planner);
  // Commits balancer proposals as one copy-on-write rule-list update.
  void PublishProposals(Micros effective_time,
                        const std::vector<RuleProposal>& proposals);

  // The cluster skeleton below is fixed at construction; the only
  // post-construction writes are the admin and membership entry points
  // (Set*Threads touches the thread-count fields of options_;
  // Add/Remove/FailNode and cutover mutate the allocator), which
  // callers serialize. pool_mu_ and shards_mu_ guard only what they
  // annotate.
  Options options_;  // lint:unguarded(thread-count fields mutated only by serialized admin Set*Threads)
  ShardAllocator allocator_;  // lint:unguarded(membership ops are externally serialized)
  std::unique_ptr<RoutingPolicy> routing_;  // lint:unguarded(fixed at construction)
  DynamicSecondaryHashing* dynamic_ = nullptr;  // owned by routing_  lint:unguarded(fixed at construction)
  // Shard table: shape fixed at construction, but slots are REBOUND
  // (Rebind) while queries and writes run, so every read copies the
  // shared_ptr under this tiny mutex. Leaf lock: taken under the
  // migrator's slot lock (MigrationSource, InstallMigrated) and never
  // held while calling into a shard.
  mutable Mutex shards_mu_;
  std::vector<std::shared_ptr<ReplicatedShard>> shards_
      GUARDED_BY(shards_mu_);  // by shard id
  WorkloadMonitor monitor_;  // lint:unguarded(internally synchronized)
  LoadBalancer balancer_;  // lint:unguarded(driven only from the serialized maintenance path)
  // Keyed by store uid (ShardStore::uid), so a rebound slot never
  // serves the old store's cached candidates.
  FilterCache filter_cache_;  // lint:unguarded(internally synchronized, striped)
  // Tiering control plane; both null unless options.tiering.enabled.
  // The cache is shared_ptr because every ShardStore (and the cold
  // segments it creates) co-owns it.
  std::shared_ptr<BlockCache> block_cache_;  // lint:unguarded(pointer fixed at construction; cache internally synchronized)
  std::unique_ptr<TierAdmission> tier_admission_;  // lint:unguarded(pointer fixed at construction)
  // Pools are swapped under pool_mu_ and pinned (shared_ptr copy) by
  // each operation that uses them, so a concurrent Set*Threads can
  // never destroy a pool out from under an in-flight fan-out. Null
  // when the corresponding thread count is 0. (Guarded by a plain
  // mutex rather than std::atomic<shared_ptr> — see the epoch_mu_
  // note in storage/shard_store.h.)
  mutable Mutex pool_mu_;
  std::shared_ptr<ThreadPool> query_pool_ GUARDED_BY(pool_mu_);
  std::shared_ptr<ThreadPool> maintenance_pool_ GUARDED_BY(pool_mu_);
  // Migration telemetry and machinery. The migrator is behind a
  // unique_ptr only because it needs `this` as its MigrationHost.
  ShardHeatTracker heat_;  // lint:unguarded(internally atomic counters)
  MigrationPlanner migration_planner_;  // lint:unguarded(stateless after construction)
  std::unique_ptr<ShardMigrator> migrator_;  // lint:unguarded(fixed at construction; internally synchronized)
  // Atomic: bumped on the (serialized) membership path but read by
  // stats accessors from any thread.
  std::atomic<uint64_t> failovers_{0};
  std::atomic<uint64_t> replicas_rebuilt_{0};
  QueryCoordinator coordinator_;  // lint:unguarded(bindings fixed at construction; internally synchronized)
};

}  // namespace esdb

#endif  // ESDB_CLUSTER_ESDB_H_
