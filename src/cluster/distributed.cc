#include "cluster/distributed.h"

#include <algorithm>
#include <chrono>

#include "query/parser.h"

namespace esdb {

DistributedEsdb::DistributedEsdb(Options options)
    : options_(std::move(options)),
      allocator_(options_.num_shards),
      routing_(MakeRoutingPolicy(options_.routing, options_.num_shards,
                                 options_.double_hash_offset)),
      dynamic_(dynamic_cast<DynamicSecondaryHashing*>(routing_.get())),
      coordinator_(&options_.spec, routing_.get(),
                   [this](ShardId s) {
                     return ShardAt(s)->primary()->Snapshot();
                   }),
      heat_(options_.num_shards, options_.heat),
      planner_(options_.migration_planner) {
  shards_.reserve(options_.num_shards);
  for (uint32_t i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(std::make_shared<ReplicatedShard>(
        &options_.spec, options_.store, ReplicationMode::kPhysical));
  }
  migrator_ = std::make_unique<ShardMigrator>(
      this, &options_.spec, options_.store, options_.num_shards,
      options_.migration);
  if (options_.maintenance_threads > 0) {
    maintenance_pool_ =
        std::make_shared<ThreadPool>(options_.maintenance_threads);
  }
}

std::shared_ptr<ReplicatedShard> DistributedEsdb::ShardAt(
    ShardId shard) const {
  MutexLock lock(&shards_mu_);
  return shards_[shard];
}

void DistributedEsdb::SetMaintenanceThreads(uint32_t n) {
  options_.maintenance_threads = n;
  // Build the new pool outside the lock (construction spawns
  // threads); an in-flight RefreshAll holds its own shared_ptr, so
  // the old pool drains and dies with its last holder.
  std::shared_ptr<ThreadPool> next =
      n > 0 ? std::make_shared<ThreadPool>(n) : nullptr;
  MutexLock lock(&pool_mu_);
  maintenance_pool_ = std::move(next);
}

Status DistributedEsdb::CheckReady() const {
  if (!allocator_.allocated()) {
    return Status::FailedPrecondition(
        "cluster needs at least two nodes before accepting work");
  }
  return Status::OK();
}

Status DistributedEsdb::AddNode(NodeId node) {
  auto moves = allocator_.AddNode(node);
  if (!moves.ok()) return moves.status();
  // Replica moves rebuild the replica at the new location (a fresh
  // store re-fed by the next replication round). Primary moves are a
  // role handover in-process — the store object is the shard's data;
  // only its failure domain changes.
  for (const ShardAllocator::Move& move : *moves) {
    if (move.is_replica) {
      ESDB_RETURN_IF_ERROR(ShardAt(move.shard)->ResetReplica());
      ++replicas_rebuilt_;
    }
  }
  return Status::OK();
}

Status DistributedEsdb::RemoveNode(NodeId node) {
  // A graceful departure still invalidates any migration touching the
  // node: a target there would be installed on a ghost, a source there
  // is about to hand over anyway.
  for (uint32_t shard = 0; shard < options_.num_shards; ++shard) {
    if (migrator_->active(shard) && (migrator_->from_node(shard) == node ||
                                     migrator_->to_node(shard) == node)) {
      ESDB_RETURN_IF_ERROR(migrator_->Abort(shard));
    }
  }
  auto moves = allocator_.RemoveNode(node);
  if (!moves.ok()) return moves.status();
  for (const ShardAllocator::Move& move : *moves) {
    if (move.is_replica) {
      ESDB_RETURN_IF_ERROR(ShardAt(move.shard)->ResetReplica());
      ++replicas_rebuilt_;
    }
  }
  RefreshAll();  // repopulate rebuilt replicas before the node is gone
  return Status::OK();
}

Status DistributedEsdb::FailNode(NodeId node) {
  ESDB_RETURN_IF_ERROR(CheckReady());
  // Migrations touching the dead node die with it: a dead target can
  // never be cut over to; a dead source just failed over, so the
  // pinned epoch / pending queue no longer describe the new primary's
  // op stream. Acknowledged writes are unaffected — the source (or
  // its replica) has them all.
  for (uint32_t shard = 0; shard < options_.num_shards; ++shard) {
    if (migrator_->active(shard) && (migrator_->from_node(shard) == node ||
                                     migrator_->to_node(shard) == node)) {
      ESDB_RETURN_IF_ERROR(migrator_->Abort(shard));
    }
  }
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
    std::shared_ptr<ReplicatedShard> old = ShardAt(shard);
    auto promoted = std::move(*old).Failover();
    if (!promoted.ok()) return promoted.status();
    auto replacement = std::make_shared<ReplicatedShard>(
        &options_.spec, options_.store, ReplicationMode::kPhysical,
        std::move(*promoted));
    {
      MutexLock lock(&shards_mu_);
      shards_[shard] = std::move(replacement);
    }
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

Status DistributedEsdb::Apply(const WriteOp& op) {
  ESDB_RETURN_IF_ERROR(CheckReady());
  if (!op.doc.Has(kFieldTenantId) || !op.doc.Has(kFieldRecordId) ||
      !op.doc.Has(kFieldCreatedTime)) {
    return Status::InvalidArgument(
        "write requires tenant_id, record_id and created_time");
  }
  const RouteKey key{op.tenant_id(), op.record_id(), op.created_time()};
  const ShardId shard = routing_->RouteWrite(key);
  // Every write funnels through the migrator so an active migration
  // sees the shard's exact acknowledged op stream (queue or mirror);
  // for an idle shard this is a plain source apply.
  const auto t0 = std::chrono::steady_clock::now();
  auto seq = migrator_->Apply(shard, op);
  const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  heat_.RecordWrite(shard);
  heat_.RecordProcessing(shard, uint64_t(micros));
  return seq.ok() ? Status::OK() : seq.status();
}

void DistributedEsdb::RefreshAll() {
  // One refresh+replication round per shard; shards are independent,
  // so the rounds run as pool tasks when maintenance_threads > 0.
  std::shared_ptr<ThreadPool> pool;
  {
    MutexLock lock(&pool_mu_);
    pool = maintenance_pool_;
  }
  RunPerOrdinal(pool.get(), options_.num_shards,
                [&](size_t i) { (void)ShardAt(ShardId(i))->Refresh(); });
}

Result<QueryResult> DistributedEsdb::ExecuteSql(std::string_view sql) {
  ESDB_RETURN_IF_ERROR(CheckReady());
  ESDB_ASSIGN_OR_RETURN(Query query, ParseSql(sql));
  return coordinator_.Execute(query, {options_.planner});
}

Result<std::string> DistributedEsdb::ExplainSql(std::string_view sql) {
  ESDB_RETURN_IF_ERROR(CheckReady());
  return coordinator_.Explain(sql, {options_.planner});
}

Result<uint64_t> DistributedEsdb::ExecuteDmlSql(std::string_view sql) {
  ESDB_RETURN_IF_ERROR(CheckReady());
  ESDB_ASSIGN_OR_RETURN(DmlStatement statement, ParseDml(sql));
  return coordinator_.ExecuteDml(
      statement, {options_.planner},
      [this](const WriteOp& op) { return Apply(op); });
}

Status DistributedEsdb::StartMigration(ShardId shard, NodeId to) {
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

size_t DistributedEsdb::DriveMigrations() {
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

size_t DistributedEsdb::MaybeMigrate() {
  if (!allocator_.allocated()) return 0;
  std::vector<NodeId> placement(options_.num_shards);
  std::set<ShardId> migrating;
  for (uint32_t shard = 0; shard < options_.num_shards; ++shard) {
    placement[shard] = allocator_.Of(shard).primary;
    if (migrator_->active(shard)) migrating.insert(shard);
  }
  size_t started = 0;
  for (const MigrationPlan& plan :
       planner_.Decide(heat_, placement, allocator_.nodes(), migrating)) {
    if (StartMigration(plan.shard, plan.to).ok()) ++started;
  }
  // Window boundary: the decision above saw the full window's heat.
  heat_.Decay();
  return started;
}

std::shared_ptr<ReplicatedShard> DistributedEsdb::MigrationSource(
    ShardId shard) {
  return ShardAt(shard);
}

Status DistributedEsdb::InstallMigrated(ShardId shard, NodeId to,
                                        std::unique_ptr<ShardStore> target) {
  // Replica first, routing second: ResetReplica runs a full peer
  // recovery (segment copy + translog tail), so if it fails nothing
  // has been published and the migration aborts cleanly; once the
  // allocator rebind succeeds the swap below cannot fail.
  auto replacement = std::make_shared<ReplicatedShard>(
      &options_.spec, options_.store, ReplicationMode::kPhysical,
      std::move(target));
  ESDB_RETURN_IF_ERROR(replacement->ResetReplica());
  ESDB_RETURN_IF_ERROR(allocator_.ReassignPrimary(shard, to));
  {
    MutexLock lock(&shards_mu_);
    shards_[shard] = std::move(replacement);
  }
  ++replicas_rebuilt_;
  return Status::OK();
}

size_t DistributedEsdb::TotalDocs() const {
  size_t total = 0;
  for (uint32_t shard = 0; shard < options_.num_shards; ++shard) {
    const std::shared_ptr<ReplicatedShard> s = ShardAt(shard);
    total += s->primary()->num_live_docs() + s->primary()->buffered_docs();
  }
  return total;
}

std::map<NodeId, size_t> DistributedEsdb::DocsByNode() const {
  std::map<NodeId, size_t> out;
  for (NodeId node : allocator_.nodes()) out[node] = 0;
  if (!allocator_.allocated()) return out;
  for (uint32_t shard = 0; shard < options_.num_shards; ++shard) {
    out[allocator_.Of(shard).primary] +=
        ShardAt(shard)->primary()->num_live_docs();
  }
  return out;
}

}  // namespace esdb
