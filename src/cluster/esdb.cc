#include "cluster/esdb.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <set>

#include "query/parser.h"
#include "storage/block_cache.h"

namespace esdb {

Esdb::Esdb(Options options)
    : options_(std::move(options)),
      allocator_(options_.num_shards),
      routing_(MakeRoutingPolicy(options_.routing, options_.num_shards,
                                 options_.double_hash_offset)),
      dynamic_(dynamic_cast<DynamicSecondaryHashing*>(routing_.get())),
      balancer_(options_.balancer),
      filter_cache_(options_.filter_cache),
      heat_(options_.num_shards, options_.heat),
      migration_planner_(options_.migration_planner),
      coordinator_(&options_.spec, routing_.get(), [this](ShardId s) {
        const std::shared_ptr<ReplicatedShard> shard = ShardAt(s);
        return QueryCoordinator::ShardSnapshot{shard->primary()->Snapshot(),
                                               shard->primary()->uid()};
      }) {
  if (options_.tiering.enabled) {
    BlockCache::Options cache_options;
    cache_options.capacity_bytes = options_.tiering.block_cache_bytes;
    block_cache_ = std::make_shared<BlockCache>(cache_options);
    tier_admission_ = std::make_unique<TierAdmission>(
        options_.num_shards, options_.tiering.admission);
    // Every store (primary, replica AND migration target) shares the
    // one cache; the stores constructed below copy these options.
    options_.store.tier.enabled = true;
    options_.store.tier.spill_dir = options_.tiering.spill_dir;
    options_.store.tier.cache = block_cache_;
  }
  shards_.reserve(options_.num_shards);
  for (uint32_t i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(MakeShard(nullptr));
  }
  migrator_ = std::make_unique<ShardMigrator>(
      this, &options_.spec, options_.store, options_.num_shards,
      options_.migration);
  if (options_.query_threads > 0) {
    query_pool_ = std::make_shared<ThreadPool>(options_.query_threads);
  }
  if (options_.maintenance_threads > 0) {
    maintenance_pool_ =
        std::make_shared<ThreadPool>(options_.maintenance_threads);
  }
}

void Esdb::SetQueryThreads(uint32_t n) {
  options_.query_threads = n;
  // In-flight queries hold their own shared_ptr to the old pool; it
  // drains and dies when the last of them finishes. Build the new
  // pool outside the lock: pool construction spawns threads.
  std::shared_ptr<ThreadPool> next =
      n > 0 ? std::make_shared<ThreadPool>(n) : nullptr;
  MutexLock lock(&pool_mu_);
  query_pool_ = std::move(next);
}

void Esdb::SetMaintenanceThreads(uint32_t n) {
  options_.maintenance_threads = n;
  std::shared_ptr<ThreadPool> next =
      n > 0 ? std::make_shared<ThreadPool>(n) : nullptr;
  MutexLock lock(&pool_mu_);
  maintenance_pool_ = std::move(next);
}

std::shared_ptr<ReplicatedShard> Esdb::ShardAt(ShardId id) const {
  MutexLock lock(&shards_mu_);
  return shards_[id];
}

std::shared_ptr<ReplicatedShard> Esdb::MakeShard(
    std::unique_ptr<ShardStore> primary) const {
  return std::make_shared<ReplicatedShard>(
      &options_.spec, options_.store,
      options_.with_replicas ? std::optional(options_.replication)
                             : std::nullopt,
      std::move(primary));
}

void Esdb::Rebind(ShardId id, std::shared_ptr<ReplicatedShard> shard) {
  MutexLock lock(&shards_mu_);
  shards_[id] = std::move(shard);
}

Status Esdb::CheckReady() const {
  if (allocator_.num_nodes() > 0 && !allocator_.allocated()) {
    return Status::FailedPrecondition(
        "cluster needs at least two nodes before accepting work");
  }
  return Status::OK();
}

// --- Membership -----------------------------------------------------

Status Esdb::RebuildMovedReplicas(
    const std::vector<ShardAllocator::Move>& moves) {
  // Replica moves rebuild the replica at the new location (a fresh
  // store filled by peer recovery). Primary moves are a role handover
  // in-process — the store object is the shard's data; only its
  // failure domain changes.
  for (const ShardAllocator::Move& move : moves) {
    if (!move.is_replica) continue;
    ESDB_RETURN_IF_ERROR(ShardAt(move.shard)->ResetReplica());
    ++replicas_rebuilt_;
  }
  return Status::OK();
}

Status Esdb::AbortMigrationsTouching(NodeId node) {
  // A target on the node would be installed on a ghost; a source there
  // hands over (graceful) or fails over (crash), so its pinned epoch
  // and pending queue no longer describe the primary's op stream.
  // Acknowledged writes are unaffected — the source (or its replica)
  // has them all.
  for (uint32_t shard = 0; shard < options_.num_shards; ++shard) {
    if (migrator_->active(shard) && (migrator_->from_node(shard) == node ||
                                     migrator_->to_node(shard) == node)) {
      ESDB_RETURN_IF_ERROR(migrator_->Abort(shard));
    }
  }
  return Status::OK();
}

Status Esdb::AddNode(NodeId node) {
  if (!options_.with_replicas) {
    return Status::FailedPrecondition(
        "nodes need replicas: build the cluster with with_replicas");
  }
  auto moves = allocator_.AddNode(node);
  if (!moves.ok()) return moves.status();
  return RebuildMovedReplicas(*moves);
}

Status Esdb::RemoveNode(NodeId node) {
  ESDB_RETURN_IF_ERROR(AbortMigrationsTouching(node));
  auto moves = allocator_.RemoveNode(node);
  if (!moves.ok()) return moves.status();
  ESDB_RETURN_IF_ERROR(RebuildMovedReplicas(*moves));
  RefreshAll();  // repopulate rebuilt replicas before the node is gone
  return Status::OK();
}

Status Esdb::FailNode(NodeId node) {
  if (!allocator_.allocated()) {
    return Status::FailedPrecondition("no shards are placed on nodes");
  }
  ESDB_RETURN_IF_ERROR(AbortMigrationsTouching(node));
  // Capture placements before the allocator reassigns them.
  std::vector<ShardId> lost_primaries, lost_replicas;
  for (uint32_t shard = 0; shard < options_.num_shards; ++shard) {
    if (allocator_.Of(shard).primary == node) {
      lost_primaries.push_back(shard);
    } else if (allocator_.Of(shard).replica == node) {
      lost_replicas.push_back(shard);
    }
  }
  auto moves = allocator_.RemoveNode(node);
  if (!moves.ok()) return moves.status();

  // Primaries on the dead node: promote the replica (it holds the
  // replicated segments plus the synchronized translog tail), then
  // wrap it as the new primary with a fresh replica.
  for (ShardId shard : lost_primaries) {
    auto promoted = std::move(*ShardAt(shard)).Failover();
    if (!promoted.ok()) return promoted.status();
    Rebind(shard, MakeShard(std::move(*promoted)));
    ++failovers_;
    ++replicas_rebuilt_;
  }
  // Replicas on the dead node: rebuild from the (healthy) primary.
  for (ShardId shard : lost_replicas) {
    ESDB_RETURN_IF_ERROR(ShardAt(shard)->ResetReplica());
    ++replicas_rebuilt_;
  }
  RefreshAll();  // repopulate all rebuilt replicas
  return Status::OK();
}

// --- Write path -----------------------------------------------------

Status Esdb::Apply(const WriteOp& op) {
  ESDB_RETURN_IF_ERROR(CheckReady());
  if (!op.doc.Has(kFieldTenantId) || !op.doc.Has(kFieldRecordId) ||
      !op.doc.Has(kFieldCreatedTime)) {
    return Status::InvalidArgument(
        "write requires tenant_id, record_id and created_time");
  }
  const RouteKey key{op.tenant_id(), op.record_id(), op.created_time()};
  const ShardId shard = routing_->RouteWrite(key);
  monitor_.RecordWrite(key.tenant);
  if (tier_admission_ != nullptr) tier_admission_->RecordWrite(shard);
  // Every write funnels through the migrator so an active migration
  // sees the shard's exact acknowledged op stream (queue or mirror);
  // for an idle shard this is a plain source apply. Shard heat feeds
  // only MaybeMigrate, which needs placed nodes: a node-less cluster
  // records none.
  using Clock = std::chrono::steady_clock;
  const bool placed = allocator_.allocated();
  const Clock::time_point t0 = placed ? Clock::now() : Clock::time_point();
  auto seq = migrator_->Apply(shard, op);
  if (placed) {
    const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
        Clock::now() - t0);
    heat_.RecordWrite(shard);
    heat_.RecordProcessing(shard, uint64_t(micros.count()));
  }
  return seq.ok() ? Status::OK() : seq.status();
}

Status Esdb::Delete(TenantId tenant, RecordId record, Micros created_time) {
  WriteOp op;
  op.type = OpType::kDelete;
  op.doc.Set(kFieldTenantId, Value(tenant));
  op.doc.Set(kFieldRecordId, Value(record));
  op.doc.Set(kFieldCreatedTime, Value(int64_t(created_time)));
  return Apply(op);
}

void Esdb::RefreshAll() {
  // One refresh+merge task per shard. Each shard's new segment epoch
  // is published atomically, so queries may run concurrently — they
  // see each shard's pre- or post-refresh epoch, never a torn list.
  std::shared_ptr<ThreadPool> pool;
  {
    MutexLock lock(&pool_mu_);
    pool = maintenance_pool_;
  }
  RunPerOrdinal(pool.get(), options_.num_shards,
                [&](size_t i) { (void)ShardAt(ShardId(i))->Refresh(); });
}

Result<QueryResult> Esdb::ExecuteSql(std::string_view sql) {
  ESDB_RETURN_IF_ERROR(CheckReady());
  if (IsDmlStatement(sql)) {
    return Status::InvalidArgument(
        "DML statement; use ExecuteDmlSql for UPDATE/DELETE");
  }
  return ExecuteSqlWithPlanner(sql, options_.planner);
}

QueryCoordinator::Call Esdb::QueryCall(const PlannerOptions& planner) {
  // The call pins the query pool (a shared_ptr copy taken under
  // pool_mu_), so a concurrent SetQueryThreads can never destroy it
  // while our tasks are on it.
  MutexLock lock(&pool_mu_);
  return {planner, query_pool_,
          options_.use_filter_cache ? &filter_cache_ : nullptr,
          tier_admission_.get()};
}

Result<std::string> Esdb::ExplainSql(std::string_view sql) {
  ESDB_RETURN_IF_ERROR(CheckReady());
  return coordinator_.Explain(sql, QueryCall(options_.planner));
}

Result<uint64_t> Esdb::ExecuteDmlSql(std::string_view sql) {
  ESDB_RETURN_IF_ERROR(CheckReady());
  ESDB_ASSIGN_OR_RETURN(DmlStatement statement, ParseDml(sql));
  return coordinator_.ExecuteDml(
      statement, QueryCall(options_.planner),
      [this](const WriteOp& op) { return Apply(op); });
}

Result<QueryResult> Esdb::Execute(const Query& query) {
  ESDB_RETURN_IF_ERROR(CheckReady());
  return coordinator_.Execute(query, QueryCall(options_.planner));
}

Result<QueryResult> Esdb::ExecuteSqlWithPlanner(
    std::string_view sql, const PlannerOptions& planner) {
  ESDB_RETURN_IF_ERROR(CheckReady());
  ESDB_ASSIGN_OR_RETURN(Query query, ParseSql(sql));
  return coordinator_.Execute(query, QueryCall(planner));
}

size_t Esdb::RunBalanceCycle(Micros effective_time) {
  if (dynamic_ == nullptr) {
    monitor_.Drain();
    return 0;
  }
  const std::vector<RuleProposal> proposals =
      balancer_.OnWindow(monitor_.Drain(), *dynamic_->PinRules());
  PublishProposals(effective_time, proposals);
  return proposals.size();
}

void Esdb::PublishProposals(Micros effective_time,
                            const std::vector<RuleProposal>& proposals) {
  if (proposals.empty()) return;
  dynamic_->UpdateRules([&](RuleList* rules) {
    for (const RuleProposal& p : proposals) {
      rules->Update(effective_time, p.offset, p.tenant);
    }
  });
}

size_t Esdb::RunTieringCycle() {
  if (tier_admission_ == nullptr) return 0;
  const std::vector<bool> cold = tier_admission_->ClassifyAndDecay();
  size_t num_cold = 0;
  // Transitions ride the merge pass, one task per shard (same fan-out
  // discipline as RefreshAll); the classification flip itself is just
  // an atomic store, visible to the shard's next merge either way.
  std::shared_ptr<ThreadPool> pool;
  {
    MutexLock lock(&pool_mu_);
    pool = maintenance_pool_;
  }
  for (uint32_t i = 0; i < options_.num_shards; ++i) {
    if (cold[i]) ++num_cold;
    ShardAt(ShardId(i))->primary()->SetTierCold(cold[i]);
  }
  RunPerOrdinal(pool.get(), options_.num_shards, [&](size_t i) {
    ShardAt(ShardId(i))->primary()->MaybeMerge();
  });
  return num_cold;
}

ShardSizeBreakdown Esdb::SizeBreakdownTotal() const {
  ShardSizeBreakdown total;
  for (uint32_t i = 0; i < options_.num_shards; ++i) {
    const ShardSizeBreakdown b =
        ShardAt(ShardId(i))->primary()->SizeBreakdown();
    total.resident_bytes += b.resident_bytes;
    total.translog_bytes += b.translog_bytes;
    total.cold_bytes += b.cold_bytes;
  }
  return total;
}

size_t Esdb::InitializeRulesFromStorage(Micros effective_time) {
  if (dynamic_ == nullptr) return 0;
  // Storage proportion per tenant, summed across shards: refreshed
  // segments PLUS the write buffer, so tenants that are hot right now
  // but not yet refreshed are weighted too.
  std::map<TenantId, uint64_t> storage;
  for (uint32_t i = 0; i < options_.num_shards; ++i) {
    const std::shared_ptr<ReplicatedShard> replicated = ShardAt(ShardId(i));
    const SegmentSnapshot snapshot = replicated->primary()->Snapshot();
    for (const SegmentView& raw : *snapshot) {
      auto pinned = raw.Pinned();
      if (!pinned.ok()) continue;  // unreadable cold segment: skip
      const SegmentView& view = *pinned;
      const DocValues::Column* col = view->doc_values().Find(kFieldTenantId);
      if (col == nullptr) continue;
      const PostingList live = view.LiveDocs();
      for (DocId id : live.ids()) {
        const Value& v = col->Get(id);
        if (v.is_int()) storage[v.as_int()] += 1;
      }
    }
    for (const auto& [tenant, count] :
         replicated->primary()->BufferedTenantCounts()) {
      storage[tenant] += count;
    }
  }
  const std::vector<RuleProposal> proposals =
      balancer_.InitializeFromStorage(storage);
  PublishProposals(effective_time, proposals);
  return proposals.size();
}

Status Esdb::InstallShard(ShardId id, std::unique_ptr<ShardStore> store) {
  if (id >= options_.num_shards) {
    return Status::InvalidArgument("shard id out of range");
  }
  if (migrator_->active(id)) {
    return Status::FailedPrecondition("shard is migrating");
  }
  std::shared_ptr<ReplicatedShard> installed = MakeShard(std::move(store));
  if (installed->has_replica()) {
    ESDB_RETURN_IF_ERROR(installed->ResetReplica());
  }
  Rebind(id, std::move(installed));
  return Status::OK();
}

// --- Live shard migration -------------------------------------------

Status Esdb::StartMigration(ShardId shard, NodeId to) {
  ESDB_RETURN_IF_ERROR(CheckReady());
  if (shard >= options_.num_shards) {
    return Status::InvalidArgument("unknown shard");
  }
  const std::vector<NodeId>& nodes = allocator_.nodes();
  if (std::find(nodes.begin(), nodes.end(), to) == nodes.end()) {
    return Status::NotFound("unknown node");
  }
  const NodeId from = allocator_.Of(shard).primary;
  if (from == to) {
    return Status::InvalidArgument("shard primary already on target node");
  }
  return migrator_->Start(shard, from, to);
}

size_t Esdb::DriveMigrations() {
  size_t cutovers = 0;
  for (uint32_t shard = 0; shard < options_.num_shards; ++shard) {
    if (!migrator_->active(shard)) continue;
    // Every successful step makes progress (ships a batch, replays
    // the delta, arms, or swaps), so this loop terminates; a
    // transient Unavailable (fault injection, backpressure) leaves
    // the state machine intact for the next round.
    while (true) {
      auto phase = migrator_->Drive(shard);
      if (!phase.ok()) break;
      if (*phase == MigrationPhase::kDone) {
        ++cutovers;
        break;
      }
      if (*phase == MigrationPhase::kAborted) break;
    }
  }
  return cutovers;
}

size_t Esdb::MaybeMigrate() {
  if (!allocator_.allocated()) return 0;
  std::vector<NodeId> placement(options_.num_shards);
  std::set<ShardId> migrating;
  for (uint32_t shard = 0; shard < options_.num_shards; ++shard) {
    placement[shard] = allocator_.Of(shard).primary;
    if (migrator_->active(shard)) migrating.insert(shard);
  }
  size_t started = 0;
  for (const MigrationPlan& plan : migration_planner_.Decide(
           heat_, placement, allocator_.nodes(), migrating)) {
    if (StartMigration(plan.shard, plan.to).ok()) ++started;
  }
  // Window boundary: the decision above saw the full window's heat.
  heat_.Decay();
  return started;
}

std::shared_ptr<ReplicatedShard> Esdb::MigrationSource(ShardId shard) {
  return ShardAt(shard);
}

Status Esdb::InstallMigrated(ShardId shard, NodeId to,
                             std::unique_ptr<ShardStore> target) {
  // Replica first, placement second: ResetReplica runs a full peer
  // recovery (segment copy + translog tail), so if it fails nothing
  // has been published and the migration aborts cleanly; once the
  // allocator rebind succeeds the swap below cannot fail.
  std::shared_ptr<ReplicatedShard> replacement = MakeShard(std::move(target));
  ESDB_RETURN_IF_ERROR(replacement->ResetReplica());
  ESDB_RETURN_IF_ERROR(allocator_.ReassignPrimary(shard, to));
  Rebind(shard, std::move(replacement));
  ++replicas_rebuilt_;
  return Status::OK();
}

// --- Introspection --------------------------------------------------

std::vector<size_t> Esdb::ShardDocCounts() const {
  std::vector<size_t> out(options_.num_shards);
  for (uint32_t i = 0; i < options_.num_shards; ++i) {
    const std::shared_ptr<ReplicatedShard> s = ShardAt(ShardId(i));
    out[i] = s->primary()->num_live_docs() + s->primary()->buffered_docs();
  }
  return out;
}

size_t Esdb::TotalDocs() const {
  size_t n = 0;
  for (size_t c : ShardDocCounts()) n += c;
  return n;
}

std::map<NodeId, size_t> Esdb::DocsByNode() const {
  std::map<NodeId, size_t> out;
  for (NodeId node : allocator_.nodes()) out[node] = 0;
  if (!allocator_.allocated()) return out;
  for (uint32_t i = 0; i < options_.num_shards; ++i) {
    out[allocator_.Of(i).primary] +=
        ShardAt(ShardId(i))->primary()->num_live_docs();
  }
  return out;
}

ReplicationStats Esdb::TotalReplicationStats() const {
  ReplicationStats total;
  for (uint32_t i = 0; i < options_.num_shards; ++i) {
    total.Add(ShardAt(ShardId(i))->stats());
  }
  return total;
}

}  // namespace esdb
