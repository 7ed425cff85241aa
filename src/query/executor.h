#ifndef ESDB_QUERY_EXECUTOR_H_
#define ESDB_QUERY_EXECUTOR_H_

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/result.h"
#include "document/document.h"
#include "query/ast.h"
#include "query/filter_cache.h"
#include "query/plan.h"
#include "storage/segment.h"

namespace esdb {

// Comparator for Value-keyed maps (GROUP BY keys).
struct ValueLess {
  bool operator()(const Value& a, const Value& b) const {
    return a.Compare(b) < 0;
  }
};

// Per-group aggregate accumulators.
struct GroupStats {
  uint64_t count = 0;
  double sum = 0;
  std::optional<Value> min;
  std::optional<Value> max;

  double Avg() const { return count > 0 ? sum / double(count) : 0; }
  void Merge(const GroupStats& other);
};

// Result of a query: the coordinator's fetched rows, or global
// aggregate accumulators, or per-group accumulators (GROUP BY) — per
// shard or, after AggregateResults, for the whole tenant.
struct QueryResult {
  std::vector<Document> rows;
  uint64_t total_matched = 0;
  // False when an early-terminating query phase (LIMIT early stop,
  // ORDER-BY pushdown) stopped before counting every match —
  // total_matched is then a lower bound, not the exact count. The
  // coordinator ANDs the per-shard flags so callers aren't lied to.
  bool total_matched_exact = true;

  // Aggregates (valid when the query had an AggFunc).
  uint64_t agg_count = 0;
  double agg_sum = 0;
  std::optional<Value> agg_min;
  std::optional<Value> agg_max;

  // GROUP BY results, keyed by the grouping column's value.
  std::map<Value, GroupStats, ValueLess> groups;
};

// Unread. The executor has one engine (the slot path of
// src/query/batch/); this struct, its field and the trailing
// parameter of ExecuteOnShard, ExecuteQueryPhase and ExecuteFetchPhase
// stay only because perfbench/bench.cc still compiles against them.
// They go with the next change to the benchmark.
struct ExecOptions {
  bool batch_execution = true;
};

// Execution counters, used by tests and benches to verify access-path
// choices (e.g. that the optimizer consulted fewer postings).
struct ExecStats {
  uint64_t segments_visited = 0;
  uint64_t postings_considered = 0;  // posting entries read from indexes
  uint64_t docs_filtered = 0;        // candidates run through doc-value scan
  uint64_t rows_materialized = 0;

  // Filter-program counters (zero when no plan node filters on doc
  // values).
  uint64_t batches_evaluated = 0;  // selection-vector batches run
  uint64_t batch_rows_passed = 0;  // rows surviving batch filters

  // Cost-model counters (zero when use_cost_model is off).
  uint64_t plans_costed = 0;             // queries run through the cost pass
  uint64_t rows_skipped_by_pushdown = 0;  // index entries never visited
                                          // thanks to kIndexTopK early stop
  uint64_t stats_only_answers = 0;  // segments answered from stats/index
                                    // bounds without touching postings

  // Lookups into QueryResult::groups: one per distinct group-key slot
  // per shard, plus one per doc whose key skips the group table (see
  // batch::Aggregator).
  uint64_t group_lookups = 0;

  // Fraction of doc-value-scanned candidates that survived filtering;
  // 0 when nothing was batch-filtered.
  double Selectivity() const {
    return docs_filtered > 0
               ? double(batch_rows_passed) / double(docs_filtered)
               : 0;
  }

  void Add(const ExecStats& other) {
    segments_visited += other.segments_visited;
    postings_considered += other.postings_considered;
    docs_filtered += other.docs_filtered;
    rows_materialized += other.rows_materialized;
    batches_evaluated += other.batches_evaluated;
    batch_rows_passed += other.batch_rows_passed;
    plans_costed += other.plans_costed;
    rows_skipped_by_pushdown += other.rows_skipped_by_pushdown;
    stats_only_answers += other.stats_only_answers;
    group_lookups += other.group_lookups;
  }
};

// Evaluates a physical plan against one segment view, producing
// candidate doc ids. Index-driven nodes do not consult tombstones
// (candidates are filtered against the view's overlay afterwards);
// kFullScan enumerates the view's live docs directly.
[[nodiscard]] Result<PostingList> EvalPlan(const PlanNode& plan,
                                           const SegmentView& view,
                                           ExecStats* stats);

// Runs an aggregate or GROUP BY `query` (with its compiled `plan`)
// over a pinned shard view: evaluates the plan per segment, drops docs
// deleted in that epoch's tombstone overlay and folds every match into
// the shard's accumulators (AggregateResults merges the shards). A row
// query is InvalidArgument: rows come only from ExecuteQueryPhase and
// ExecuteFetchPhase. The view is immutable, so this is safe against
// concurrent DML — a query observes the frozen set of deletes it
// pinned. With a non-null `cache`, cacheable plans reuse per-segment
// candidate lists (filter cache). `cache_domain` identifies the store
// the snapshot belongs to (segment ids are store-local, so the cache
// keys on both).
[[nodiscard]] Result<QueryResult> ExecuteOnShard(
    const Query& query, const PlanNode& plan, const ShardView& snapshot,
    ExecStats* stats, FilterCache* cache = nullptr, uint64_t cache_domain = 0,
    const ExecOptions& = ExecOptions());

// Plan evaluation through the filter cache: consults/populates `cache`
// when the plan is cacheable; falls back to EvalPlan otherwise.
// `fingerprint` must be PlanFingerprint(plan) (computed once per
// query, not per segment).
[[nodiscard]] Result<PostingList> EvalPlanCached(const PlanNode& plan,
                                   const SegmentView& view, ExecStats* stats,
                                   FilterCache* cache, uint64_t cache_domain,
                                   const std::string& fingerprint);

// Coordinator-side aggregation (Section 3.2, "query result
// aggregator"): merges ExecuteOnShard's per-shard accumulators, in
// shard order. The query argument is unread; perfbench/bench.cc still
// passes one, as with ExecOptions.
QueryResult AggregateResults(const Query& query,
                             std::vector<QueryResult> shard_results);

// --- Two-phase execution (Section 3.2) --------------------------------
//
// "Coordinators first collect row IDs of the selected rows from all
// involved shards, and then fetch the corresponding raw data." The
// query phase returns lightweight row references (location + sort
// keys, resolved from doc values — no stored-document decoding); the
// coordinator merges them globally and fetches only the winners.

struct RowRef {
  uint32_t shard_ordinal = 0;   // caller-assigned shard index
  uint32_t segment_ordinal = 0; // position in that shard's snapshot
  DocId doc = 0;
  std::vector<Value> sort_keys; // one per ORDER BY column
};

// Query phase on one shard: candidate row refs, top-(offset+limit)
// locally when sorted. `total_matched` accumulates the full match
// count; `total_matched_exact` (optional) is cleared when an
// early-terminating path made that count a lower bound. Only valid
// for row queries (no aggregate/group-by).
[[nodiscard]] Result<std::vector<RowRef>> ExecuteQueryPhase(
    const Query& query, const PlanNode& plan, const ShardView& snapshot,
    uint32_t shard_ordinal, ExecStats* stats, uint64_t* total_matched,
    bool* total_matched_exact = nullptr, FilterCache* cache = nullptr,
    uint64_t cache_domain = 0, const ExecOptions& = ExecOptions());

// Orders row refs per the query's ORDER BY (ties keep stable order).
void SortRowRefs(const Query& query, std::vector<RowRef>* refs);

// Fetch phase: materializes `refs` (already globally merged and
// trimmed) from their segments, attaching _score when the query asks
// for it. `snapshots[shard_ordinal]` must be the same snapshot the
// query phase used.
[[nodiscard]] Result<std::vector<Document>> ExecuteFetchPhase(
    const Query& query, const std::vector<SegmentSnapshot>& snapshots,
    const std::vector<RowRef>& refs, ExecStats* stats,
    const ExecOptions& = ExecOptions());

// Applies SELECT-column projection in place to fetched rows (the last
// step of a row query). Columns resolve as WHERE and ORDER BY resolve
// them, so an "attributes.<key>" column projects the sub-attribute.
void ProjectRows(const Query& query, std::vector<Document>* rows);

// Full-text relevance scoring (ORDER BY _score [DESC]): a BM25-style
// score over the query's MATCH predicates,
//   score = sum over query tokens of idf(t) * tf / (tf + k1)
// with idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5)). N and df count
// the live docs of the shard's pinned snapshot, once per query (the
// per-shard statistics of Elasticsearch's query_then_fetch), so a
// merge or migration that re-cuts segments leaves every score as it
// was. tf is counted by re-analyzing the candidate's text (only
// candidates pay this cost). The score is attached to each result row
// as the "_score" field.
inline constexpr const char* kFieldScore = "_score";

}  // namespace esdb

#endif  // ESDB_QUERY_EXECUTOR_H_
