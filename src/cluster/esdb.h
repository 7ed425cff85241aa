#ifndef ESDB_CLUSTER_ESDB_H_
#define ESDB_CLUSTER_ESDB_H_

#include <memory>
#include <string>
#include <vector>

#include "balancer/load_balancer.h"
#include "balancer/monitor.h"
#include "cluster/query_coordinator.h"
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

// In-process ESDB instance: N shards (each a ShardStore, optionally
// with a physical/logical replica), a routing policy, a workload
// monitor and a load balancer. This is the *real engine*: writes are
// indexed, SQL is parsed/optimized/executed. Cluster-scale resource
// contention (CPU, queues) is studied separately in sim/cluster_sim.h.
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
// at a time. Writes stay single-writer
// per shard (ShardStore's internal writer mutex); concurrent callers
// of Apply targeting the same shard serialize there, nothing else.
// With query_threads > 0 each query fans its per-shard subqueries out
// over an internal pool (tenant-scoped queries touching at most two
// shards run inline — the handoff costs more than it buys); with
// maintenance_threads > 0 RefreshAll fans refresh+merge (and the
// replication round) out the same way. See DESIGN.md "Thread model".
class Esdb {
 public:
  struct Options {
    uint32_t num_shards = 64;
    RoutingKind routing = RoutingKind::kDynamic;
    uint32_t double_hash_offset = 8;  // s for kDoubleHash
    IndexSpec spec = IndexSpec::TransactionLogDefault();
    ShardStore::Options store;
    PlannerOptions planner;
    // Enable per-shard replicas (costs memory; most query benches
    // only need primaries).
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
  };

  explicit Esdb(Options options);

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

  // Makes all buffered writes searchable.
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
  ShardStore* shard(ShardId id) { return Primary(id); }
  const IndexSpec& spec() const { return options_.spec; }
  WorkloadMonitor* monitor() { return &monitor_; }

  const ShardStore* shard(ShardId id) const { return Primary(id); }
  bool with_replicas() const { return options_.with_replicas; }

  // Replaces a shard's store (cluster-checkpoint restore). Only valid
  // for clusters built without replicas.
  [[nodiscard]] Status InstallShard(ShardId id, std::unique_ptr<ShardStore> store);

  // Per-shard live doc counts (shard-size distribution, Figure 13d).
  std::vector<size_t> ShardDocCounts() const;
  size_t TotalDocs() const;
  // Total replica maintenance cost counters (Figure 15 driver).
  ReplicationStats TotalReplicationStats() const;

 private:
  ShardStore* Primary(ShardId id);
  const ShardStore* Primary(ShardId id) const;
  // A coordinator call lent this instance's query pool, filter cache
  // and tier admission.
  QueryCoordinator::Call QueryCall(const PlannerOptions& planner);
  // Commits balancer proposals as one copy-on-write rule-list update.
  void PublishProposals(Micros effective_time,
                        const std::vector<RuleProposal>& proposals);

  // The cluster skeleton below is fixed at construction; the only
  // post-construction writes are the admin entry points (Set*Threads
  // touches the thread-count fields of options_, InstallShard rebinds
  // one shards_ slot), which callers serialize. pool_mu_ guards only
  // what it annotates.
  Options options_;  // lint:unguarded(thread-count fields mutated only by serialized admin Set*Threads)
  std::unique_ptr<RoutingPolicy> routing_;  // lint:unguarded(fixed at construction)
  DynamicSecondaryHashing* dynamic_ = nullptr;  // owned by routing_  lint:unguarded(fixed at construction)
  // Either plain stores or replicated shards, by options.
  std::vector<std::unique_ptr<ShardStore>> shards_;  // lint:unguarded(shape fixed at construction; InstallShard is externally serialized)
  std::vector<std::unique_ptr<ReplicatedShard>> replicated_;  // lint:unguarded(shape fixed at construction; elements internally synchronized)
  WorkloadMonitor monitor_;  // lint:unguarded(internally synchronized)
  LoadBalancer balancer_;  // lint:unguarded(driven only from the serialized maintenance path)
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
  QueryCoordinator coordinator_;  // lint:unguarded(bindings fixed at construction; internally synchronized)
};

}  // namespace esdb

#endif  // ESDB_CLUSTER_ESDB_H_
