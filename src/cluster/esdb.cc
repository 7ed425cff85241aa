#include "cluster/esdb.h"

#include "query/parser.h"
#include "storage/block_cache.h"

namespace esdb {

Esdb::Esdb(Options options)
    : options_(std::move(options)),
      routing_(MakeRoutingPolicy(options_.routing, options_.num_shards,
                                 options_.double_hash_offset)),
      dynamic_(dynamic_cast<DynamicSecondaryHashing*>(routing_.get())),
      balancer_(options_.balancer),
      filter_cache_(options_.filter_cache),
      coordinator_(&options_.spec, routing_.get(), options_.two_phase_queries,
                   [this](ShardId s) { return Primary(s)->Snapshot(); }) {
  if (options_.tiering.enabled) {
    BlockCache::Options cache_options;
    cache_options.capacity_bytes = options_.tiering.block_cache_bytes;
    block_cache_ = std::make_shared<BlockCache>(cache_options);
    tier_admission_ = std::make_unique<TierAdmission>(
        options_.num_shards, options_.tiering.admission);
    // Every store (primary AND replica) shares the one cache; the
    // stores constructed below copy these options.
    options_.store.tier.enabled = true;
    options_.store.tier.spill_dir = options_.tiering.spill_dir;
    options_.store.tier.cache = block_cache_;
  }
  if (options_.with_replicas) {
    replicated_.reserve(options_.num_shards);
    for (uint32_t i = 0; i < options_.num_shards; ++i) {
      replicated_.push_back(std::make_unique<ReplicatedShard>(
          &options_.spec, options_.store, options_.replication));
    }
  } else {
    shards_.reserve(options_.num_shards);
    for (uint32_t i = 0; i < options_.num_shards; ++i) {
      shards_.push_back(
          std::make_unique<ShardStore>(&options_.spec, options_.store));
    }
  }
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

ShardStore* Esdb::Primary(ShardId id) {
  return options_.with_replicas ? replicated_[id]->primary()
                                : shards_[id].get();
}

const ShardStore* Esdb::Primary(ShardId id) const {
  return options_.with_replicas ? replicated_[id]->primary()
                                : shards_[id].get();
}

Status Esdb::Apply(const WriteOp& op) {
  if (!op.doc.Has(kFieldTenantId) || !op.doc.Has(kFieldRecordId) ||
      !op.doc.Has(kFieldCreatedTime)) {
    return Status::InvalidArgument(
        "write requires tenant_id, record_id and created_time");
  }
  const RouteKey key{op.tenant_id(), op.record_id(), op.created_time()};
  const ShardId shard = routing_->RouteWrite(key);
  monitor_.RecordWrite(key.tenant);
  if (tier_admission_ != nullptr) tier_admission_->RecordWrite(shard);
  if (options_.with_replicas) {
    auto seq = replicated_[shard]->Apply(op);
    return seq.ok() ? Status::OK() : seq.status();
  }
  auto seq = shards_[shard]->Apply(op);
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
  RunPerOrdinal(pool.get(), options_.num_shards, [&](size_t i) {
    if (options_.with_replicas) {
      // ReplicatedShard::Refresh also runs the replication round.
      (void)replicated_[i]->Refresh();
    } else {
      shards_[i]->Refresh();
      shards_[i]->MaybeMerge();
    }
  });
}

Result<QueryResult> Esdb::ExecuteSql(std::string_view sql) {
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
  return coordinator_.Explain(sql, QueryCall(options_.planner));
}

Result<uint64_t> Esdb::ExecuteDmlSql(std::string_view sql) {
  ESDB_ASSIGN_OR_RETURN(DmlStatement statement, ParseDml(sql));
  return coordinator_.ExecuteDml(
      statement, QueryCall(options_.planner),
      [this](const WriteOp& op) { return Apply(op); });
}

Result<QueryResult> Esdb::Execute(const Query& query) {
  return coordinator_.Execute(query, QueryCall(options_.planner));
}

Result<QueryResult> Esdb::ExecuteSqlWithPlanner(
    std::string_view sql, const PlannerOptions& planner) {
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
    Primary(ShardId(i))->SetTierCold(cold[i]);
  }
  RunPerOrdinal(pool.get(), options_.num_shards,
                [&](size_t i) { Primary(ShardId(i))->MaybeMerge(); });
  return num_cold;
}

ShardSizeBreakdown Esdb::SizeBreakdownTotal() const {
  ShardSizeBreakdown total;
  for (uint32_t i = 0; i < options_.num_shards; ++i) {
    const ShardSizeBreakdown b = Primary(ShardId(i))->SizeBreakdown();
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
    const SegmentSnapshot snapshot = Primary(ShardId(i))->Snapshot();
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
         Primary(ShardId(i))->BufferedTenantCounts()) {
      storage[tenant] += count;
    }
  }
  const std::vector<RuleProposal> proposals =
      balancer_.InitializeFromStorage(storage);
  PublishProposals(effective_time, proposals);
  return proposals.size();
}

Status Esdb::InstallShard(ShardId id, std::unique_ptr<ShardStore> store) {
  if (options_.with_replicas) {
    return Status::FailedPrecondition(
        "InstallShard requires a replica-less cluster");
  }
  if (id >= options_.num_shards) {
    return Status::InvalidArgument("shard id out of range");
  }
  shards_[id] = std::move(store);
  filter_cache_.Clear();  // cached candidates may refer to the old store
  return Status::OK();
}

std::vector<size_t> Esdb::ShardDocCounts() const {
  std::vector<size_t> out(options_.num_shards);
  for (uint32_t i = 0; i < options_.num_shards; ++i) {
    out[i] = Primary(ShardId(i))->num_live_docs() +
             Primary(ShardId(i))->buffered_docs();
  }
  return out;
}

size_t Esdb::TotalDocs() const {
  size_t n = 0;
  for (size_t c : ShardDocCounts()) n += c;
  return n;
}

ReplicationStats Esdb::TotalReplicationStats() const {
  ReplicationStats total;
  for (const auto& shard : replicated_) total.Add(shard->stats());
  return total;
}

}  // namespace esdb
