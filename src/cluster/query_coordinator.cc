#include "cluster/query_coordinator.h"

#include <algorithm>
#include <optional>

#include "query/cost.h"
#include "query/dsl.h"
#include "query/normalize.h"
#include "query/parser.h"

namespace esdb {

namespace {

// Finds a top-level tenant_id equality (possibly nested under ANDs):
// the common shape of seller-facing queries. Returns false when the
// query is not tenant-scoped.
bool ExtractTenant(const Expr& e, TenantId* out) {
  if (e.kind == Expr::Kind::kAnd) {
    return std::any_of(e.children.begin(), e.children.end(),
                       [&](const auto& c) { return ExtractTenant(*c, out); });
  }
  const Predicate& p = e.pred;
  if (e.kind != Expr::Kind::kPred || p.column != kFieldTenantId ||
      p.op != PredOp::kEq || p.args.size() != 1 || !p.args[0].is_int()) {
    return false;
  }
  *out = p.args[0].as_int();
  return true;
}

// Runs fn(ordinal) for every ordinal (as pool tasks when `pool` is
// set) and returns the first failure in ordinal order.
Status FanOut(ThreadPool* pool, size_t n,
              const std::function<Status(size_t)>& fn) {
  std::vector<Status> statuses(n, Status::OK());
  RunPerOrdinal(pool, n, [&](size_t i) { statuses[i] = fn(i); });
  for (Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return Status::OK();
}

// A delete by `row`'s routing key (tenant + record + creation time).
WriteOp DeleteOf(const Document& row) {
  WriteOp op{OpType::kDelete, {}};
  for (const char* field :
       {kFieldTenantId, kFieldRecordId, kFieldCreatedTime}) {
    op.doc.Set(field, row.Get(field));
  }
  return op;
}

}  // namespace

struct QueryCoordinator::Prepared {
  bool tenant_scoped = false;
  TenantId tenant = 0;
  std::vector<ShardId> targets;
  std::unique_ptr<Expr> normalized;
  std::unique_ptr<PlanNode> plan;
  std::vector<SegmentSnapshot> snapshots;
  std::optional<CostDecision> decision;  // set when costed
};

QueryCoordinator::Prepared QueryCoordinator::Prepare(
    const Query& query, const PlannerOptions& planner) const {
  Prepared p;
  // Shard fan-out: tenant-scoped queries touch only the consecutive
  // run the routing policy names; others broadcast.
  p.tenant_scoped =
      query.where != nullptr && ExtractTenant(*query.where, &p.tenant);
  if (p.tenant_scoped) {
    p.targets = routing_.RouteRead(p.tenant);
  } else {
    p.targets.resize(routing_.num_shards());
    for (uint32_t i = 0; i < routing_.num_shards(); ++i) p.targets[i] = i;
  }

  // Xdriver4ES pipeline + RBO, once per query (plans are shard-
  // agnostic).
  if (query.where != nullptr) {
    p.normalized = NormalizeForPlanning(query.where->Clone());
  }
  p.plan = PlanWhere(p.normalized.get(), spec_, planner);

  // Snapshots are taken serially up front (one lock-free epoch load
  // per shard); the subqueries themselves run against these immutable
  // segment epochs and stay valid even if a concurrent refresh
  // publishes new epochs, or a failover or cutover rebinds the shard,
  // mid-query.
  p.snapshots.reserve(p.targets.size());
  for (ShardId shard : p.targets) p.snapshots.push_back(snapshot_(shard));

  // Cost-based transform pass (query/cost.h): rewrites the rule-based
  // plan against the pinned snapshots' column sketches. Runs after the
  // snapshots are taken so the statistics describe exactly the data
  // the query will read.
  if (planner.use_cost_model) {
    const StatsView stats_view = StatsView::Collect(p.snapshots);
    p.decision = ApplyCostTransforms(query, spec_, stats_view, &p.plan);
  }
  return p;
}

Result<QueryResult> QueryCoordinator::Execute(const Query& query,
                                              const Call& call) {
  const Prepared p = Prepare(query, call.planner);
  ExecStats stats;
  Result<QueryResult> result = Run(query, p, call, &stats);
  MutexLock lock(&stats_mu_);
  last_ = {uint32_t(p.targets.size()), stats};
  return result;
}

QueryCoordinator::LastQuery QueryCoordinator::last_query() const {
  MutexLock lock(&stats_mu_);
  return last_;
}

Result<QueryResult> QueryCoordinator::Run(const Query& query,
                                          const Prepared& p, const Call& call,
                                          ExecStats* stats) const {
  const size_t fan_out = p.targets.size();
  if (p.decision) ++stats->plans_costed;
  if (call.admission != nullptr) {
    for (ShardId s : p.targets) call.admission->RecordQuery(s);
  }

  // Adaptive parallelism: a tenant-scoped query resolving to one or
  // two shards runs inline in the calling thread even when a pool is
  // configured — the handoff/join overhead exceeds the win at that
  // fan-out, and the hot skewed tenant issues exactly these queries.
  // Each task writes only its own ordinal's slots; merging happens
  // afterwards in shard-ordinal order, so parallel results are
  // byte-identical to serial ones.
  constexpr size_t kInlineFanOut = 2;
  ThreadPool* pool = fan_out > kInlineFanOut ? call.pool.get() : nullptr;
  const PlanNode& plan = *p.plan;

  // Two-phase path for row queries: the coordinator merges row ids +
  // sort keys and fetches raw documents only for the global winners.
  if (two_phase_ && query.agg == AggFunc::kNone && query.group_by.empty()) {
    struct ShardRefs {
      std::vector<RowRef> refs;
      ExecStats stats;
      uint64_t matched = 0;
      bool exact = true;
    };
    std::vector<ShardRefs> shards(fan_out);
    ESDB_RETURN_IF_ERROR(FanOut(pool, fan_out, [&](size_t i) -> Status {
      ShardRefs& s = shards[i];
      ESDB_ASSIGN_OR_RETURN(
          s.refs, ExecuteQueryPhase(query, plan, *p.snapshots[i], uint32_t(i),
                                    &s.stats, &s.matched, &s.exact,
                                    call.cache, p.targets[i]));
      return Status::OK();
    }));
    QueryResult result;
    size_t total_refs = 0;
    for (const ShardRefs& s : shards) {
      stats->Add(s.stats);
      result.total_matched += s.matched;
      result.total_matched_exact = result.total_matched_exact && s.exact;
      total_refs += s.refs.size();
    }
    std::vector<RowRef> all_refs;
    all_refs.reserve(total_refs);
    for (ShardRefs& s : shards) {
      for (RowRef& ref : s.refs) all_refs.push_back(std::move(ref));
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
    ESDB_ASSIGN_OR_RETURN(result.rows,
                          ExecuteFetchPhase(query, p.snapshots, all_refs,
                                            stats));
    ProjectRows(query, &result.rows);
    return result;
  }

  // Single-phase path (aggregates, group-bys, or two-phase disabled).
  std::vector<QueryResult> shard_results(fan_out);
  std::vector<ExecStats> shard_stats(fan_out);
  ESDB_RETURN_IF_ERROR(FanOut(pool, fan_out, [&](size_t i) -> Status {
    ESDB_ASSIGN_OR_RETURN(
        shard_results[i],
        ExecuteOnShard(query, plan, *p.snapshots[i], &shard_stats[i],
                       call.cache, p.targets[i]));
    return Status::OK();
  }));
  for (const ExecStats& shard : shard_stats) stats->Add(shard);
  return AggregateResults(query, std::move(shard_results));
}

Result<std::string> QueryCoordinator::Explain(std::string_view sql,
                                              const Call& call) {
  ESDB_ASSIGN_OR_RETURN(Query query, ParseSql(sql));
  ESDB_ASSIGN_OR_RETURN(std::string dsl, SqlToDsl(sql));
  // One prepare step for the printout and the run, so est= and actual=
  // describe the same pinned epoch even under a concurrent refresh.
  const Prepared p = Prepare(query, call.planner);

  std::string out = "parsed:     " + query.ToString() + "\n";
  if (p.normalized != nullptr) {
    out += "normalized: " + p.normalized->ToString() + "\n";
  }
  out += "es-dsl:     " + dsl + "\n";
  if (p.tenant_scoped) {
    out += "fan-out:    tenant " + std::to_string(p.tenant) + " -> " +
           std::to_string(p.targets.size()) + " shard(s), starting at shard " +
           std::to_string(p.targets.front()) + "\n";
  } else {
    out += "fan-out:    broadcast to all " + std::to_string(p.targets.size()) +
           " shards\n";
  }
  out += "plan:\n" + p.plan->ToString(1) + "\n";
  if (!p.decision) return out;

  out += "transform:  " + p.decision->transform + "\n";
  // Estimated vs actual cardinality — EXPLAIN here runs the query
  // (reads only) so misestimates are visible at a glance. A '+' marks
  // an early-terminated count (actual is a lower bound).
  ExecStats stats;
  ESDB_ASSIGN_OR_RETURN(QueryResult result, Run(query, p, call, &stats));
  out += "cardinality: est=" +
         std::to_string(int64_t(p.decision->estimated_rows + 0.5)) +
         " actual=" + std::to_string(result.total_matched) +
         (result.total_matched_exact ? "" : "+");
  if (!query.group_by.empty()) {
    out += " group_lookups=" + std::to_string(stats.group_lookups);
  }
  out += "\n";
  return out;
}

Result<uint64_t> QueryCoordinator::ExecuteDml(
    const DmlStatement& statement, const Call& call,
    const std::function<Status(const WriteOp&)>& apply) {
  if (statement.kind == DmlStatement::Kind::kInsert) {
    for (const Document& row : statement.rows) {
      ESDB_RETURN_IF_ERROR(apply(WriteOp{OpType::kInsert, row}));
    }
    return uint64_t(statement.rows.size());
  }
  // UPDATE/DELETE: select the affected rows (full documents, no
  // limit).
  Query select;
  select.table = statement.table;
  if (statement.where != nullptr) select.where = statement.where->Clone();
  ESDB_ASSIGN_OR_RETURN(QueryResult affected, Execute(select, call));

  for (Document& row : affected.rows) {
    const WriteOp erase_old = DeleteOf(row);
    if (statement.kind == DmlStatement::Kind::kDelete) {
      ESDB_RETURN_IF_ERROR(apply(erase_old));
      continue;
    }
    WriteOp op{OpType::kUpdate, std::move(row)};
    for (const auto& [column, value] : statement.set) {
      op.doc.Set(column, value);
    }
    // SET may have touched a routing column (tenant_id, record_id,
    // created_time), re-routing the upsert to a different shard — or,
    // for record_id, to a different upsert key. The old version would
    // then stay live where it is; delete it via its ORIGINAL routing
    // key before applying the re-routed write.
    if (!(DeleteOf(op.doc).doc == erase_old.doc)) {
      ESDB_RETURN_IF_ERROR(apply(erase_old));
    }
    ESDB_RETURN_IF_ERROR(apply(op));
  }
  return uint64_t(affected.rows.size());
}

}  // namespace esdb
