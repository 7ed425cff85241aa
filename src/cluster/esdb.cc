#include "cluster/esdb.h"

#include <algorithm>
#include <functional>
#include <future>

#include "query/cost.h"
#include "query/dsl.h"
#include "query/normalize.h"
#include "query/parser.h"
#include "storage/block_cache.h"

namespace esdb {

namespace {

// Finds a top-level tenant_id equality (possibly nested under ANDs):
// the common shape of seller-facing queries. Returns false when the
// query is not tenant-scoped.
bool ExtractTenant(const Expr& e, TenantId* out) {
  if (e.kind == Expr::Kind::kPred) {
    const Predicate& p = e.pred;
    if (p.column == kFieldTenantId && p.op == PredOp::kEq &&
        p.args.size() == 1 && p.args[0].is_int()) {
      *out = p.args[0].as_int();
      return true;
    }
    return false;
  }
  if (e.kind == Expr::Kind::kAnd) {
    for (const auto& c : e.children) {
      if (ExtractTenant(*c, out)) return true;
    }
  }
  return false;
}

}  // namespace

Esdb::Esdb(Options options)
    : options_(std::move(options)),
      batch_execution_(options_.batch_execution),
      balancer_(options_.balancer),
      filter_cache_(options_.filter_cache) {
  switch (options_.routing) {
    case RoutingKind::kHash:
      routing_ = std::make_unique<HashRouting>(options_.num_shards);
      break;
    case RoutingKind::kDoubleHash:
      routing_ = std::make_unique<DoubleHashRouting>(
          options_.num_shards, options_.double_hash_offset);
      break;
    case RoutingKind::kDynamic: {
      auto dynamic =
          std::make_unique<DynamicSecondaryHashing>(options_.num_shards);
      dynamic_ = dynamic.get();
      routing_ = std::move(dynamic);
      break;
    }
  }
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

uint32_t Esdb::last_subqueries() const {
  MutexLock lock(&stats_mu_);
  return last_subqueries_;
}

ExecStats Esdb::last_stats() const {
  MutexLock lock(&stats_mu_);
  return last_stats_;
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

Result<std::string> Esdb::ExplainSql(std::string_view sql) {
  ESDB_ASSIGN_OR_RETURN(Query query, ParseSql(sql));
  std::string out = "parsed:     " + query.ToString() + "\n";

  std::unique_ptr<Expr> normalized;
  if (query.where != nullptr) {
    normalized = NormalizeForPlanning(query.where->Clone());
    out += "normalized: " + normalized->ToString() + "\n";
  }
  {
    auto dsl = SqlToDsl(sql);
    if (!dsl.ok()) return dsl.status();
    out += "es-dsl:     " + *dsl + "\n";
  }

  TenantId tenant = 0;
  std::vector<ShardId> target_shards;
  if (query.where != nullptr && ExtractTenant(*query.where, &tenant)) {
    target_shards = routing_->RouteRead(tenant);
    out += "fan-out:    tenant " + std::to_string(tenant) + " -> " +
           std::to_string(target_shards.size()) +
           " shard(s), starting at shard " +
           std::to_string(target_shards.front()) + "\n";
  } else {
    target_shards.resize(options_.num_shards);
    for (uint32_t i = 0; i < options_.num_shards; ++i) target_shards[i] = i;
    out += "fan-out:    broadcast to all " +
           std::to_string(options_.num_shards) + " shards\n";
  }

  std::unique_ptr<PlanNode> plan =
      PlanWhere(normalized.get(), options_.spec, options_.planner);
  CostDecision decision;
  bool costed = false;
  if (options_.planner.use_cost_model) {
    // Same stats the query itself would plan against: the pinned
    // snapshots of every target shard.
    std::vector<SegmentSnapshot> snapshots;
    snapshots.reserve(target_shards.size());
    for (ShardId shard : target_shards) {
      snapshots.push_back(Primary(shard)->Snapshot());
    }
    const StatsView stats = StatsView::Collect(snapshots);
    decision = ApplyCostTransforms(query, options_.spec, stats, &plan);
    costed = true;
  }
  out += "plan:\n" + plan->ToString(1) + "\n";
  if (costed) {
    out += "transform:  " + decision.transform + "\n";
    // Estimated vs actual cardinality — EXPLAIN here runs the query
    // (reads only) so misestimates are visible at a glance. A '+'
    // marks an early-terminated count (actual is a lower bound).
    ExecStats stats;
    ESDB_ASSIGN_OR_RETURN(QueryResult result,
                          RunQuery(query, options_.planner, &stats));
    out += "cardinality: est=" +
           std::to_string(int64_t(decision.estimated_rows + 0.5)) +
           " actual=" + std::to_string(result.total_matched) +
           (result.total_matched_exact ? "" : "+");
    if (!query.group_by.empty()) {
      out += " group_lookups=" + std::to_string(stats.group_lookups);
    }
    out += "\n";
  }
  return out;
}

Result<uint64_t> Esdb::ExecuteDmlSql(std::string_view sql) {
  ESDB_ASSIGN_OR_RETURN(DmlStatement statement, ParseDml(sql));
  return ExecuteDml(statement);
}

Result<uint64_t> Esdb::ExecuteDml(const DmlStatement& statement) {
  if (statement.kind == DmlStatement::Kind::kInsert) {
    for (const Document& row : statement.rows) {
      WriteOp op;
      op.type = OpType::kInsert;
      op.doc = row;
      ESDB_RETURN_IF_ERROR(Apply(op));
    }
    return uint64_t(statement.rows.size());
  }
  // UPDATE/DELETE: select the affected rows (full documents, no
  // limit).
  Query select;
  select.table = statement.table;
  if (statement.where != nullptr) select.where = statement.where->Clone();
  ESDB_ASSIGN_OR_RETURN(QueryResult affected, Execute(select));

  for (Document& row : affected.rows) {
    WriteOp op;
    if (statement.kind == DmlStatement::Kind::kDelete) {
      op.type = OpType::kDelete;
      op.doc.Set(kFieldTenantId, row.Get(kFieldTenantId));
      op.doc.Set(kFieldRecordId, row.Get(kFieldRecordId));
      op.doc.Set(kFieldCreatedTime, row.Get(kFieldCreatedTime));
    } else {
      op.type = OpType::kUpdate;
      const Value old_tenant = row.Get(kFieldTenantId);
      const Value old_record = row.Get(kFieldRecordId);
      const Value old_created = row.Get(kFieldCreatedTime);
      op.doc = std::move(row);
      for (const auto& [column, value] : statement.set) {
        op.doc.Set(column, value);
      }
      // SET may have touched a routing column (tenant_id, record_id,
      // created_time), re-routing the upsert to a different shard —
      // or, for record_id, to a different upsert key. The old version
      // would then stay live where it is; delete it via its ORIGINAL
      // routing key before applying the re-routed write.
      if (!(old_tenant == op.doc.Get(kFieldTenantId)) ||
          !(old_record == op.doc.Get(kFieldRecordId)) ||
          !(old_created == op.doc.Get(kFieldCreatedTime))) {
        WriteOp erase_old;
        erase_old.type = OpType::kDelete;
        erase_old.doc.Set(kFieldTenantId, old_tenant);
        erase_old.doc.Set(kFieldRecordId, old_record);
        erase_old.doc.Set(kFieldCreatedTime, old_created);
        ESDB_RETURN_IF_ERROR(Apply(erase_old));
      }
    }
    ESDB_RETURN_IF_ERROR(Apply(op));
  }
  return uint64_t(affected.rows.size());
}

Result<QueryResult> Esdb::Execute(const Query& query) {
  return ExecuteWithPlanner(query, options_.planner);
}

Result<QueryResult> Esdb::ExecuteSqlWithPlanner(
    std::string_view sql, const PlannerOptions& planner) {
  ESDB_ASSIGN_OR_RETURN(Query query, ParseSql(sql));
  return ExecuteWithPlanner(query, planner);
}

Result<QueryResult> Esdb::ExecuteWithPlanner(const Query& query,
                                             const PlannerOptions& planner) {
  return RunQuery(query, planner, nullptr);
}

Result<QueryResult> Esdb::RunQuery(const Query& query,
                                   const PlannerOptions& planner,
                                   ExecStats* stats_out) {
  // Shard fan-out: tenant-scoped queries touch only the consecutive
  // run the routing policy names; others broadcast.
  std::vector<ShardId> target_shards;
  TenantId tenant = 0;
  if (query.where != nullptr && ExtractTenant(*query.where, &tenant)) {
    target_shards = routing_->RouteRead(tenant);
  } else {
    target_shards.resize(options_.num_shards);
    for (uint32_t i = 0; i < options_.num_shards; ++i) target_shards[i] = i;
  }
  if (tier_admission_ != nullptr) {
    for (ShardId s : target_shards) tier_admission_->RecordQuery(s);
  }
  // Executor counters accumulate locally and publish under the stats
  // mutex on every exit, keeping concurrent client queries race-free.
  ExecStats exec_stats;
  const auto publish_stats = [&] {
    if (stats_out != nullptr) *stats_out = exec_stats;
    MutexLock lock(&stats_mu_);
    last_subqueries_ = uint32_t(target_shards.size());
    last_stats_ = exec_stats;
  };

  // Xdriver4ES pipeline + RBO, once per query (plans are shard-
  // agnostic).
  std::unique_ptr<Expr> normalized;
  if (query.where != nullptr) {
    normalized = NormalizeForPlanning(query.where->Clone());
  }
  std::unique_ptr<PlanNode> plan =
      PlanWhere(normalized.get(), options_.spec, planner);

  const size_t fan_out = target_shards.size();
  FilterCache* cache = options_.use_filter_cache ? &filter_cache_ : nullptr;
  // Engine choice is sampled once per query so a concurrent
  // SetBatchExecution cannot split one query across engines.
  ExecOptions exec_opts;
  exec_opts.batch_execution = batch_execution();

  // Adaptive parallelism: a tenant-scoped query resolving to one or
  // two shards runs inline in the calling thread even when a pool is
  // configured — the handoff/join overhead exceeds the win at that
  // fan-out, and the hot skewed tenant issues exactly these queries.
  // Broad fan-outs pin the subquery pool for the whole query:
  // SetQueryThreads swaps the pool through a mutex-guarded
  // shared_ptr, so a concurrent resize can never destroy the pool
  // while our tasks are on it. Results are byte-identical either way
  // (merge order is fixed by shard ordinal).
  constexpr size_t kInlineFanOut = 2;
  std::shared_ptr<ThreadPool> pool;
  if (fan_out > kInlineFanOut) {
    MutexLock lock(&pool_mu_);
    pool = query_pool_;
  }

  // Snapshots are taken serially up front (one lock-free epoch load
  // per shard); the subqueries themselves run against these immutable
  // segment epochs — serially, or as pool tasks when query_threads >
  // 0 — and stay valid even if a concurrent RefreshAll publishes new
  // epochs mid-query. Each task writes only its own ordinal's slots;
  // merging happens afterwards in shard-ordinal order, so parallel
  // results are byte-identical to serial ones.
  std::vector<SegmentSnapshot> snapshots;
  snapshots.reserve(fan_out);
  for (ShardId shard : target_shards) {
    snapshots.push_back(Primary(shard)->Snapshot());
  }

  // Cost-based transform pass (query/cost.h): rewrites the rule-based
  // plan against the pinned snapshots' column sketches. Runs after the
  // snapshots are taken so the statistics describe exactly the data
  // the query will read.
  if (planner.use_cost_model) {
    const StatsView stats_view = StatsView::Collect(snapshots);
    ApplyCostTransforms(query, options_.spec, stats_view, &plan);
    ++exec_stats.plans_costed;
  }

  // Two-phase path for row queries: the coordinator merges row ids +
  // sort keys and fetches raw documents only for the global winners.
  if (options_.two_phase_queries && query.agg == AggFunc::kNone &&
      query.group_by.empty()) {
    std::vector<std::vector<RowRef>> shard_refs(fan_out);
    std::vector<Status> statuses(fan_out, Status::OK());
    std::vector<ExecStats> shard_stats(fan_out);
    std::vector<uint64_t> shard_matched(fan_out, 0);
    std::vector<uint8_t> shard_exact(fan_out, 1);
    RunPerOrdinal(pool.get(), fan_out, [&](size_t ordinal) {
      bool exact = true;
      auto refs = ExecuteQueryPhase(query, *plan, *snapshots[ordinal],
                                    uint32_t(ordinal), &shard_stats[ordinal],
                                    &shard_matched[ordinal], &exact, cache,
                                    target_shards[ordinal], exec_opts);
      shard_exact[ordinal] = exact ? 1 : 0;
      if (refs.ok()) {
        shard_refs[ordinal] = std::move(*refs);
      } else {
        statuses[ordinal] = refs.status();
      }
    });
    uint64_t total_matched = 0;
    bool total_matched_exact = true;
    size_t total_refs = 0;
    for (size_t ordinal = 0; ordinal < fan_out; ++ordinal) {
      if (!statuses[ordinal].ok()) {
        publish_stats();
        return statuses[ordinal];
      }
      exec_stats.Add(shard_stats[ordinal]);
      total_matched += shard_matched[ordinal];
      total_matched_exact = total_matched_exact && shard_exact[ordinal] != 0;
      total_refs += shard_refs[ordinal].size();
    }
    std::vector<RowRef> all_refs;
    all_refs.reserve(total_refs);
    for (std::vector<RowRef>& refs : shard_refs) {
      for (RowRef& ref : refs) all_refs.push_back(std::move(ref));
    }
    if (!query.order_by.empty()) SortRowRefs(query, &all_refs);
    // Global offset + limit trim BEFORE any document is fetched.
    if (query.offset > 0) {
      const size_t skip = std::min(size_t(query.offset), all_refs.size());
      all_refs.erase(all_refs.begin(), all_refs.begin() + long(skip));
    }
    if (query.limit >= 0 && int64_t(all_refs.size()) > query.limit) {
      all_refs.resize(size_t(query.limit));
    }
    QueryResult result;
    result.total_matched = total_matched;
    result.total_matched_exact = total_matched_exact;
    auto fetched =
        ExecuteFetchPhase(query, snapshots, all_refs, &exec_stats, exec_opts);
    publish_stats();
    if (!fetched.ok()) return fetched.status();
    result.rows = std::move(*fetched);
    ProjectRows(query, &result.rows);
    return result;
  }

  // Single-phase path (aggregates, group-bys, or two-phase disabled).
  std::vector<QueryResult> shard_results(fan_out);
  std::vector<Status> statuses(fan_out, Status::OK());
  std::vector<ExecStats> shard_stats(fan_out);
  RunPerOrdinal(pool.get(), fan_out, [&](size_t ordinal) {
    auto r = ExecuteOnShard(query, *plan, *snapshots[ordinal],
                            &shard_stats[ordinal], cache,
                            target_shards[ordinal], exec_opts);
    if (r.ok()) {
      shard_results[ordinal] = std::move(*r);
    } else {
      statuses[ordinal] = r.status();
    }
  });
  for (size_t ordinal = 0; ordinal < fan_out; ++ordinal) {
    if (!statuses[ordinal].ok()) {
      publish_stats();
      return statuses[ordinal];
    }
    exec_stats.Add(shard_stats[ordinal]);
  }
  publish_stats();
  return AggregateResults(query, std::move(shard_results));
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
