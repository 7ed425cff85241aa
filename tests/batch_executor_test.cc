// The slot executor against stored documents: every query shape the
// engine supports, over a fuzz corpus of several segments, must give
// exactly the answer recomputed from the segments' decoded documents
// (GetDocument) with the WHERE clause evaluated on each document by
// tests/support/reference_eval.h. The reference shares nothing with
// the executor beyond the parser and planner: no index, plan node,
// doc-value column, slot or filter program. Rows compare by serialized
// bytes, aggregates and sort keys by exact value and type. Randomized
// but seeded — failures reproduce.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "cluster/esdb.h"
#include "common/random.h"
#include "query/batch/filter.h"
#include "query/batch/slot.h"
#include "query/executor.h"
#include "query/normalize.h"
#include "query/optimizer.h"
#include "query/parser.h"
#include "storage/shard_store.h"
#include "support/reference_eval.h"

namespace esdb {
namespace {

IndexSpec FuzzSpec() {
  IndexSpec spec;
  spec.text_fields = {"title"};
  spec.composite_indexes = {{"tenant_id", "created_time"}};
  spec.scan_fields = {"status", "flag", "group", "amount", "mixed", "ratio"};
  spec.indexed_sub_attributes = {"activity"};
  return spec;
}

// Deterministic store with the value shapes the slot engine must get
// right: nulls (columns randomly absent per doc), a mixed-type column
// (int/double/string in one column), doubles (`ratio` is on every doc,
// so its segments take the uniform-double fast path), negative ints,
// text, and attribute strings. Refreshes every `refresh_every` docs so the
// snapshot holds several segments.
std::unique_ptr<ShardStore> BuildFuzzStore(const IndexSpec* spec,
                                           int num_docs, uint64_t seed,
                                           int refresh_every = 61) {
  ShardStore::Options options;
  options.refresh_doc_count = 0;
  options.merge.max_segments = 1000;  // keep segments fragmented
  auto store = std::make_unique<ShardStore>(spec, options);
  Rng rng(seed);
  const char* titles[] = {"classic novel", "cotton shirt", "novel lamp",
                          "steel bottle", "gaming keyboard"};
  const char* activities[] = {"promo", "none", "festival"};
  for (int i = 0; i < num_docs; ++i) {
    WriteOp op;
    op.type = OpType::kInsert;
    op.doc.Set(kFieldTenantId, Value(int64_t(1 + rng.Uniform(5))));
    op.doc.Set(kFieldRecordId, Value(int64_t(i)));
    op.doc.Set(kFieldCreatedTime, Value(int64_t(rng.Uniform(1000))));
    if (rng.Bernoulli(0.9)) {
      op.doc.Set("status", Value(int64_t(rng.Uniform(4))));
    }
    op.doc.Set("flag", Value(int64_t(rng.Uniform(2))));
    op.doc.Set("group", Value(int64_t(rng.Uniform(20)) - 10));
    if (rng.Bernoulli(0.85)) {
      op.doc.Set("amount", Value(double(rng.Uniform(1000)) / 10.0));
    }
    // One column, three runtime types: defeats every uniform-column
    // fast path and forces the generic slot loop.
    const uint32_t mix = rng.Uniform(4);
    if (mix == 0) {
      op.doc.Set("mixed", Value(int64_t(rng.Uniform(100))));
    } else if (mix == 1) {
      op.doc.Set("mixed", Value(double(rng.Uniform(100)) + 0.5));
    } else if (mix == 2) {
      op.doc.Set("mixed", Value("m" + std::to_string(rng.Uniform(5))));
    }  // mix == 3: absent (null)
    op.doc.Set("ratio", Value(double((i * 37) % 101) / 4.0));
    op.doc.Set("title", Value(std::string(titles[rng.Uniform(5)])));
    if (rng.Bernoulli(0.8)) {
      std::string attrs =
          "activity:" + std::string(activities[rng.Uniform(3)]);
      if (rng.Bernoulli(0.5)) {
        attrs += ";attr" + std::to_string(rng.Uniform(4)) + ":v" +
                 std::to_string(rng.Uniform(6));
      }
      op.doc.Set(kFieldAttributes, Value(std::move(attrs)));
    }
    EXPECT_TRUE(store->Apply(op).ok());
    if (i % refresh_every == refresh_every - 1) store->Refresh();
  }
  store->Refresh();
  return store;
}

Query ParseQuery(const std::string& sql) {
  auto q = ParseSql(sql);
  EXPECT_TRUE(q.ok()) << sql << ": " << q.status().ToString();
  return std::move(q).value();
}

// --- Reference walk over stored documents ------------------------------

// One live document the WHERE clause accepts, with its location.
struct Match {
  uint32_t segment_ordinal = 0;
  DocId doc = 0;
  Document stored;
};

// The live docs of `snapshot` that WHERE accepts, decoded, in segment
// and doc-id order (the order in which the executor visits candidates).
std::vector<Match> MatchingDocs(const ShardView& snapshot, const Query& query) {
  std::vector<Match> out;
  for (uint32_t s = 0; s < snapshot.size(); ++s) {
    const SegmentView& view = snapshot[s];
    for (DocId id = 0; id < DocId(view.num_docs()); ++id) {
      if (view.IsDeleted(id)) continue;
      auto doc = view.GetDocument(id);
      EXPECT_TRUE(doc.ok()) << doc.status().ToString();
      if (!doc.ok()) continue;
      if (query.where != nullptr &&
          !EvalWhereOnDocument(*query.where, *doc)) {
        continue;
      }
      out.push_back({s, id, std::move(*doc)});
    }
  }
  return out;
}

void StableSortMatches(const Query& query, std::vector<Match>* matches) {
  std::stable_sort(matches->begin(), matches->end(),
                   [&](const Match& a, const Match& b) {
                     return ReferenceOrderLess(query, a.stored, b.stored);
                   });
}

// The shard-local answer, folded per decoded doc. An aggregate gives
// ExecuteOnShard's aggregates and groups over every match. A row query
// gives the rows its query and fetch phases give: sorted, kept to
// offset + limit and projected (with no ORDER BY, the first
// offset + limit matches, after which the shard stops counting).
QueryResult ReferenceShardResult(const Query& query,
                                 std::vector<Match> matches) {
  QueryResult out;
  if (query.agg != AggFunc::kNone) {
    for (const Match& m : matches) ReferenceFoldDocument(query, m.stored, &out);
    return out;
  }
  const int64_t cap = query.limit >= 0 ? query.limit + query.offset : -1;
  out.total_matched = matches.size();
  if (query.order_by.empty() && cap >= 0 && int64_t(matches.size()) >= cap) {
    out.total_matched = uint64_t(cap);
    out.total_matched_exact = false;
  }
  StableSortMatches(query, &matches);
  if (cap >= 0 && int64_t(matches.size()) > cap) matches.resize(size_t(cap));
  for (Match& m : matches) {
    out.rows.push_back(ReferenceProject(query, std::move(m.stored)));
  }
  return out;
}

std::string TypedValue(const std::optional<Value>& v) {
  if (!v) return "none";
  return std::to_string(int(v->type())) + ":" + v->ToString();
}

// Strict equality: serialized rows, typed aggregate values and group
// keys (Value::operator== is Compare-based and would let an int 1 pass
// for a double 1.0), exact sums.
void ExpectSameResult(const QueryResult& want, const QueryResult& got,
                      const std::string& label) {
  ASSERT_EQ(want.rows.size(), got.rows.size()) << label;
  for (size_t i = 0; i < want.rows.size(); ++i) {
    EXPECT_EQ(want.rows[i].Serialize(), got.rows[i].Serialize())
        << label << " row " << i;
  }
  EXPECT_EQ(want.total_matched, got.total_matched) << label;
  EXPECT_EQ(want.total_matched_exact, got.total_matched_exact) << label;
  EXPECT_EQ(want.agg_count, got.agg_count) << label;
  EXPECT_EQ(want.agg_sum, got.agg_sum) << label;
  EXPECT_EQ(TypedValue(want.agg_min), TypedValue(got.agg_min)) << label;
  EXPECT_EQ(TypedValue(want.agg_max), TypedValue(got.agg_max)) << label;
  ASSERT_EQ(want.groups.size(), got.groups.size()) << label;
  auto w = want.groups.begin();
  for (auto g = got.groups.begin(); g != got.groups.end(); ++w, ++g) {
    EXPECT_EQ(TypedValue(w->first), TypedValue(g->first)) << label;
    EXPECT_EQ(w->second.count, g->second.count) << label;
    EXPECT_EQ(w->second.sum, g->second.sum) << label;
    EXPECT_EQ(TypedValue(w->second.min), TypedValue(g->second.min)) << label;
    EXPECT_EQ(TypedValue(w->second.max), TypedValue(g->second.max)) << label;
  }
}

// Runs one query over one pinned snapshot, under both planner
// configurations, and checks against the decoded documents:
//  - per segment, EvalPlan's live candidates are exactly the matches;
//  - an aggregate: ExecuteOnShard's aggregates and groups;
//  - a row query: ExecuteQueryPhase's row refs in ORDER BY order (ties
//    in segment/doc order) and each ref's sort keys, type and value;
//    then the refs sorted, trimmed to offset + limit, fetched and
//    projected: the rows, match count and exactness.
void ExpectMatchesStoredDocs(const ShardStore& store, const IndexSpec& spec,
                             const std::string& sql) {
  SCOPED_TRACE(sql);
  const Query query = ParseQuery(sql);
  const SegmentSnapshot snapshot = store.Snapshot();
  const std::vector<Match> matches = MatchingDocs(*snapshot, query);

  PlannerOptions rbo;
  PlannerOptions baseline;
  baseline.use_composite_index = false;
  baseline.use_scan_list = false;
  for (const PlannerOptions& planner : {rbo, baseline}) {
    SCOPED_TRACE(planner.use_composite_index ? "rules" : "baseline");
    std::unique_ptr<Expr> normalized;
    if (query.where != nullptr) {
      normalized = NormalizeForPlanning(query.where->Clone());
    }
    const auto plan = PlanWhere(normalized.get(), spec, planner);

    for (uint32_t s = 0; s < snapshot->size(); ++s) {
      const SegmentView& view = (*snapshot)[s];
      ExecStats stats;
      auto candidates = EvalPlan(*plan, view, &stats);
      ASSERT_TRUE(candidates.ok()) << candidates.status().ToString();
      std::vector<DocId> live;
      for (DocId id : candidates->ids()) {
        if (!view.IsDeleted(id)) live.push_back(id);
      }
      std::vector<DocId> want;
      for (const Match& m : matches) {
        if (m.segment_ordinal == s) want.push_back(m.doc);
      }
      EXPECT_EQ(live, want) << "segment " << s;
    }

    ExecStats stats;
    if (query.agg != AggFunc::kNone || !query.group_by.empty()) {
      auto result = ExecuteOnShard(query, *plan, *snapshot, &stats);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ExpectSameResult(ReferenceShardResult(query, matches), *result,
                       "ExecuteOnShard");
      continue;
    }
    uint64_t matched = 0;
    bool exact = true;
    auto refs = ExecuteQueryPhase(query, *plan, *snapshot, 0, &stats,
                                  &matched, &exact);
    ASSERT_TRUE(refs.ok()) << refs.status().ToString();
    std::vector<Match> want = matches;
    const int64_t cap = query.limit >= 0 ? query.limit + query.offset : -1;
    StableSortMatches(query, &want);
    if (cap >= 0 && int64_t(want.size()) > cap) want.resize(size_t(cap));
    // The query phase leaves refs in doc order when it keeps them all;
    // order them by their own sort keys before comparing.
    std::vector<RowRef> got = std::move(refs).value();
    SortRowRefs(query, &got);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].segment_ordinal, want[i].segment_ordinal) << "ref " << i;
      EXPECT_EQ(got[i].doc, want[i].doc) << "ref " << i;
      ASSERT_EQ(got[i].sort_keys.size(), query.order_by.size());
      for (size_t k = 0; k < query.order_by.size(); ++k) {
        EXPECT_EQ(TypedValue(got[i].sort_keys[k]),
                  TypedValue(ReferenceFieldValue(want[i].stored,
                                                 query.order_by[k].column)))
            << "ref " << i << " sort key " << k;
      }
    }

    if (cap >= 0 && int64_t(got.size()) > cap) got.resize(size_t(cap));
    QueryResult fetched;
    auto rows = ExecuteFetchPhase(query, {snapshot}, got, &stats);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    fetched.rows = std::move(rows).value();
    ProjectRows(query, &fetched.rows);
    fetched.total_matched = matched;
    fetched.total_matched_exact = exact;
    ExpectSameResult(ReferenceShardResult(query, matches), fetched,
                     "query + fetch phase");
  }
}

class BatchExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_ = FuzzSpec();
    store_ = BuildFuzzStore(&spec_, 700, 4242);
  }

  IndexSpec spec_;
  std::unique_ptr<ShardStore> store_;
};

TEST_F(BatchExecutorTest, FixedQueryShapes) {
  const char* sqls[] = {
      // Composite + residual filters (the paper's workload shape).
      "SELECT * FROM t WHERE tenant_id = 1 AND created_time BETWEEN 100 AND "
      "700 AND status = 2 AND amount >= 30.5",
      // Pure scan paths: int range, double range, IN set, negation.
      "SELECT * FROM t WHERE status >= 1 AND status < 3",
      "SELECT * FROM t WHERE amount > 42.5 AND amount <= 77.0",
      "SELECT * FROM t WHERE group IN (-3, 0, 4, 7)",
      "SELECT * FROM t WHERE status != 2 AND flag = 1",
      "SELECT * FROM t WHERE NOT (status = 1 OR group > 5)",
      // Int column vs double literal and vice versa (cross-type
      // compare must stay exact).
      "SELECT * FROM t WHERE group >= -2.5",
      "SELECT * FROM t WHERE amount = 50",
      "SELECT * FROM t WHERE created_time BETWEEN 100 AND 900.5",
      // Mixed-type column: generic slot path.
      "SELECT * FROM t WHERE mixed > 10",
      "SELECT * FROM t WHERE mixed = 'm2'",
      "SELECT * FROM t WHERE mixed IS NULL",
      "SELECT * FROM t WHERE mixed IS NOT NULL",
      // Nulls / missing columns.
      "SELECT * FROM t WHERE status IS NULL",
      "SELECT * FROM t WHERE amount IS NOT NULL AND amount < 20",
      "SELECT * FROM t WHERE no_such_column = 5",
      "SELECT * FROM t WHERE no_such_column IS NULL",
      // Sub-attributes, indexed and scanned.
      "SELECT * FROM t WHERE attributes.activity = 'promo'",
      "SELECT * FROM t WHERE attributes.attr2 = 'v3'",
      "SELECT * FROM t WHERE attributes.attr1 IS NOT NULL AND flag = 0",
      // Text: MATCH and LIKE.
      "SELECT * FROM t WHERE MATCH(title, 'novel')",
      "SELECT * FROM t WHERE title LIKE '%cotton%'",
      // Union / intersect plan shapes.
      "SELECT * FROM t WHERE status = 1 OR group = 3 OR flag = 0",
      "SELECT * FROM t WHERE (status = 1 OR status = 3) AND (flag = 1 OR "
      "group < 0)",
      // Aggregates and GROUP BY.
      "SELECT COUNT(*) FROM t WHERE status = 1",
      "SELECT SUM(amount) FROM t WHERE tenant_id = 2",
      "SELECT MIN(mixed) FROM t",
      "SELECT MAX(mixed) FROM t WHERE flag = 1",
      "SELECT COUNT(*) FROM t GROUP BY status",
      "SELECT SUM(amount) FROM t GROUP BY status",
      "SELECT AVG(amount) FROM t WHERE created_time > 300 GROUP BY mixed",
      // ORDER BY / LIMIT through sort-key resolution.
      "SELECT * FROM t WHERE status = 2 ORDER BY created_time DESC LIMIT 10",
      "SELECT * FROM t WHERE flag = 1 ORDER BY amount LIMIT 7",
      "SELECT * FROM t WHERE group < 0 ORDER BY status, ratio DESC LIMIT 12",
      "SELECT * FROM t WHERE flag = 0 ORDER BY attributes.activity, mixed",
      // Projection of fetched rows, including an absent column.
      "SELECT record_id, amount, mixed FROM t WHERE flag = 1 ORDER BY amount "
      "DESC LIMIT 9 OFFSET 2",
      "SELECT title, no_such_column FROM t WHERE status = 3",
      // Projection of sub-attributes, the ones WHERE and ORDER BY read.
      "SELECT record_id, attributes.attr2, attributes.activity FROM t WHERE "
      "attributes.attr2 = 'v3'",
      "SELECT attributes.activity, attributes.no_such_key FROM t WHERE "
      "flag = 0 ORDER BY attributes.activity, record_id LIMIT 15",
      // LIMIT without ORDER BY: the shard stops early.
      "SELECT * FROM t WHERE ratio >= 10.0 LIMIT 9",
  };
  for (const char* sql : sqls) ExpectMatchesStoredDocs(*store_, spec_, sql);
}

// Every range operator at a value the column really holds, as an int
// and as a double literal: the typed fast paths (int range, int IN,
// double range over int and double columns) must get each bound's
// inclusiveness right, which random literals rarely probe.
TEST_F(BatchExecutorTest, FastPathBoundsAtStoredValues) {
  const SegmentSnapshot snapshot = store_->Snapshot();
  auto first = (*snapshot)[0].GetDocument(0);
  ASSERT_TRUE(first.ok());
  char ratio[32];
  std::snprintf(ratio, sizeof(ratio), "%.2f",
                first->Get("ratio").as_double());
  const std::string group = first->Get("group").ToString();
  const std::string created = first->Get(kFieldCreatedTime).ToString();
  const struct {
    std::string column;
    std::string value;
  } kProbes[] = {{"group", group},
                 {"group", group + ".0"},
                 {"created_time", created},
                 {"created_time", created + ".0"},
                 {"ratio", ratio}};
  for (const auto& probe : kProbes) {
    const std::string& c = probe.column;
    const std::string& v = probe.value;
    for (const char* op : {" = ", " < ", " <= ", " > ", " >= ", " != "}) {
      ExpectMatchesStoredDocs(*store_, spec_,
                              "SELECT * FROM t WHERE " + c + op + v);
    }
    ExpectMatchesStoredDocs(
        *store_, spec_,
        "SELECT * FROM t WHERE " + c + " BETWEEN " + v + " AND " + v);
    ExpectMatchesStoredDocs(
        *store_, spec_, "SELECT * FROM t WHERE NOT (" + c + " > " + v + ")");
    ExpectMatchesStoredDocs(*store_, spec_,
                            "SELECT * FROM t WHERE " + c + " IN (" + v + ")");
  }
}

// Seeded random query generator: composite ranges, every scalar
// operator, sub-attributes, unions, aggregates, sorts.
TEST_F(BatchExecutorTest, RandomizedQueriesMatchStoredDocs) {
  Rng rng(20260808);
  for (int trial = 0; trial < 120; ++trial) {
    std::string sql = "SELECT ";
    const bool grouped = rng.Bernoulli(0.2);
    const bool agg = grouped || rng.Bernoulli(0.15);
    if (agg) {
      const char* funcs[] = {"COUNT(*)", "SUM(amount)", "MIN(amount)",
                             "MAX(mixed)", "AVG(amount)"};
      sql += funcs[rng.Uniform(5)];
    } else {
      sql += "*";
    }
    sql += " FROM t WHERE ";
    std::vector<std::string> preds;
    if (rng.Bernoulli(0.7)) {
      preds.push_back("tenant_id = " + std::to_string(1 + rng.Uniform(5)));
    }
    if (rng.Bernoulli(0.5)) {
      const int64_t lo = int64_t(rng.Uniform(800));
      preds.push_back("created_time BETWEEN " + std::to_string(lo) + " AND " +
                      std::to_string(lo + int64_t(rng.Uniform(400))));
    }
    const int extra = 1 + int(rng.Uniform(3));
    for (int i = 0; i < extra; ++i) {
      const uint32_t pick = rng.Uniform(10);
      switch (pick) {
        case 0:
          preds.push_back("status = " + std::to_string(rng.Uniform(5)));
          break;
        case 1:
          preds.push_back("status >= " + std::to_string(rng.Uniform(4)));
          break;
        case 2:
          preds.push_back("group < " +
                          std::to_string(int64_t(rng.Uniform(20)) - 10));
          break;
        case 3: {
          const double a = double(rng.Uniform(1000)) / 10.0;
          preds.push_back("amount " +
                          std::string(rng.Bernoulli(0.5) ? ">=" : "<") + " " +
                          std::to_string(a));
          break;
        }
        case 4:
          preds.push_back("group IN (" +
                          std::to_string(int64_t(rng.Uniform(20)) - 10) +
                          ", " +
                          std::to_string(int64_t(rng.Uniform(20)) - 10) +
                          ")");
          break;
        case 5:
          preds.push_back("flag != " + std::to_string(rng.Uniform(2)));
          break;
        case 6:
          preds.push_back("mixed " +
                          std::string(rng.Bernoulli(0.5) ? ">" : "<=") + " " +
                          std::to_string(rng.Uniform(100)));
          break;
        case 7:
          preds.push_back("attributes.attr" + std::to_string(rng.Uniform(4)) +
                          " = 'v" + std::to_string(rng.Uniform(6)) + "'");
          break;
        case 8:
          preds.push_back(std::string(rng.Bernoulli(0.5) ? "amount" : "mixed") +
                          (rng.Bernoulli(0.5) ? " IS NULL" : " IS NOT NULL"));
          break;
        default:
          preds.push_back("NOT (status = " + std::to_string(rng.Uniform(4)) +
                          " OR flag = " + std::to_string(rng.Uniform(2)) +
                          ")");
          break;
      }
    }
    if (preds.empty()) preds.push_back("status >= 0");
    for (size_t i = 0; i < preds.size(); ++i) {
      if (i > 0) sql += rng.Bernoulli(0.8) ? " AND " : " OR ";
      sql += preds[i];
    }
    if (grouped) {
      sql += " GROUP BY ";
      sql += rng.Bernoulli(0.5) ? "status" : "mixed";
    } else if (!agg && rng.Bernoulli(0.4)) {
      sql += " ORDER BY created_time DESC LIMIT ";
      sql += std::to_string(1 + rng.Uniform(30));
    }
    ExpectMatchesStoredDocs(*store_, spec_, sql);
  }
}

// Tombstone overlays arriving mid-stream: the answers must follow a
// snapshot whose candidate batches are riddled with deleted docs, and
// an older pinned snapshot must keep its frozen live set.
TEST_F(BatchExecutorTest, TombstoneOverlaysMatchStoredDocs) {
  const SegmentSnapshot before = store_->Snapshot();
  Rng rng(99);
  int deleted = 0;
  for (int i = 0; i < 700; ++i) {
    if (rng.Bernoulli(0.3)) {
      WriteOp op;
      op.type = OpType::kDelete;
      op.doc.Set(kFieldRecordId, Value(int64_t(i)));
      if (store_->Apply(op).ok()) ++deleted;
    }
  }
  ASSERT_GT(deleted, 100);
  const char* sqls[] = {
      "SELECT * FROM t WHERE status >= 1",
      "SELECT * FROM t WHERE tenant_id = 3 AND created_time BETWEEN 0 AND "
      "900 AND amount > 10",
      "SELECT COUNT(*) FROM t GROUP BY status",
      "SELECT SUM(amount) FROM t WHERE flag = 1",
      "SELECT * FROM t WHERE ratio < 12.5 ORDER BY ratio DESC LIMIT 20",
  };
  for (const char* sql : sqls) ExpectMatchesStoredDocs(*store_, spec_, sql);

  // The old snapshot still sees every doc.
  const Query q = ParseQuery("SELECT COUNT(*) FROM t");
  const auto plan = PlanWhere(nullptr, spec_, PlannerOptions{});
  ExecStats stats;
  auto result = ExecuteOnShard(q, *plan, *before, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->agg_count, 700u);
}

// End to end through the cluster layer: the coordinator's merged answer
// (shards in ordinal order, global sort, offset and limit) must equal
// the decoded documents of every shard's pinned snapshot, and doc-value
// filtering must run through the filter programs.
TEST(BatchExecutorClusterTest, EndToEndMatchesStoredDocs) {
  Esdb::Options options;
  options.num_shards = 4;
  options.routing = RoutingKind::kHash;
  options.store.refresh_doc_count = 0;
  Esdb db(options);
  Rng rng(777);
  for (int i = 0; i < 400; ++i) {
    Document doc;
    doc.Set(kFieldTenantId, Value(int64_t(1 + rng.Uniform(20))));
    doc.Set(kFieldRecordId, Value(int64_t(i)));
    doc.Set(kFieldCreatedTime, Value(int64_t(rng.Uniform(1000))));
    doc.Set("status", Value(int64_t(rng.Uniform(4))));
    doc.Set("amount", Value(double(rng.Uniform(500)) / 5.0));
    ASSERT_TRUE(db.Insert(std::move(doc)).ok());
  }
  db.RefreshAll();
  const char* sqls[] = {
      "SELECT * FROM t WHERE status = 2 AND amount >= 40.0 ORDER BY amount "
      "DESC, record_id LIMIT 20 OFFSET 3",
      "SELECT * FROM t WHERE amount < 12.5 ORDER BY record_id",
      "SELECT COUNT(*) FROM t WHERE amount < 55.5",
      "SELECT MAX(amount) FROM t WHERE status != 1",
  };
  for (const char* sql : sqls) {
    SCOPED_TRACE(sql);
    const Query query = ParseQuery(sql);
    std::vector<Match> matches;
    for (ShardId s = 0; s < db.num_shards(); ++s) {
      for (Match& m : MatchingDocs(*db.shard(s)->Snapshot(), query)) {
        matches.push_back(std::move(m));
      }
    }
    QueryResult want = ReferenceShardResult(query, std::move(matches));
    const size_t skip = std::min(size_t(query.offset), want.rows.size());
    want.rows.erase(want.rows.begin(), want.rows.begin() + long(skip));
    auto got = db.ExecuteSql(sql);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameResult(want, *got, sql);
    const ExecStats stats = db.last_stats();
    if (stats.docs_filtered > 0) {
      EXPECT_GT(stats.batches_evaluated, 0u);
    }
  }
}

// The slot mirror itself: CompareSlotValue and EvalPredSlot must
// agree with Value::Compare / Predicate::Eval on random value pairs,
// including Nothing vs null and cross-type ranks.
TEST(SlotMirrorTest, AgreesWithValueSemantics) {
  Rng rng(31337);
  std::deque<std::string> pool;  // stable addresses for string slots
  const auto random_value = [&]() -> Value {
    switch (rng.Uniform(5)) {
      case 0:
        return Value::Null();
      case 1:
        return Value(rng.Bernoulli(0.5));
      case 2:
        return Value(int64_t(rng.Uniform(200)) - 100);
      case 3:
        return Value(double(int64_t(rng.Uniform(200)) - 100) / 3.0);
      default:
        return Value("s" + std::to_string(rng.Uniform(8)));
    }
  };
  const auto to_slot = [&pool](const Value& v) -> batch::TypedSlot {
    using batch::SlotTag;
    using batch::TypedSlot;
    if (v.is_null()) return TypedSlot::Nothing();
    if (v.is_bool()) return TypedSlot{SlotTag::kBool, v.as_bool() ? 1u : 0u};
    if (v.is_int()) return TypedSlot{SlotTag::kInt, uint64_t(v.as_int())};
    if (v.is_double()) {
      uint64_t bits;
      const double d = v.as_double();
      std::memcpy(&bits, &d, sizeof(bits));
      return TypedSlot{SlotTag::kDouble, bits};
    }
    pool.push_back(v.as_string());
    return TypedSlot{SlotTag::kString, uint64_t(uintptr_t(&pool.back()))};
  };
  const auto sign = [](int c) { return c < 0 ? -1 : (c > 0 ? 1 : 0); };

  for (int trial = 0; trial < 2000; ++trial) {
    const Value a = random_value();
    const Value b = random_value();
    const batch::TypedSlot slot = to_slot(a);
    EXPECT_EQ(sign(batch::CompareSlotValue(slot, b)), sign(a.Compare(b)))
        << a.ToString() << " vs " << b.ToString();
    EXPECT_TRUE(batch::SlotToValue(slot) == a);
    EXPECT_EQ(batch::SlotToValue(slot).type(), a.type());

    Predicate pred;
    pred.column = "c";
    const PredOp ops[] = {PredOp::kEq, PredOp::kNe,      PredOp::kLt,
                          PredOp::kLe, PredOp::kGt,      PredOp::kGe,
                          PredOp::kBetween, PredOp::kIn, PredOp::kLike,
                          PredOp::kMatch,   PredOp::kIsNull,
                          PredOp::kIsNotNull};
    pred.op = ops[rng.Uniform(12)];
    pred.args.push_back(b);
    if (pred.op == PredOp::kBetween || rng.Bernoulli(0.3)) {
      pred.args.push_back(random_value());
    }
    if (pred.op == PredOp::kLike || pred.op == PredOp::kMatch) {
      pred.args[0] = Value("s" + std::to_string(rng.Uniform(8)));
    }
    EXPECT_EQ(batch::EvalPredSlot(pred, slot), pred.Eval(a))
        << pred.ToString() << " on " << a.ToString();
  }
}

// The attribute sidecar must answer exactly like parsing the raw
// attributes string per doc.
TEST_F(BatchExecutorTest, SidecarMatchesStringParsing) {
  const SegmentSnapshot snapshot = store_->Snapshot();
  for (const SegmentView& view : *snapshot) {
    const AttributeSidecar* sidecar = view->attribute_sidecar();
    ASSERT_NE(sidecar, nullptr);
    for (DocId id = 0; id < DocId(view->num_docs()); ++id) {
      auto doc = view->GetDocument(id);
      ASSERT_TRUE(doc.ok());
      const Value& raw = doc->Get(kFieldAttributes);
      const auto parsed =
          raw.is_string() ? ParseAttributes(raw.as_string())
                          : std::map<std::string, std::string>{};
      for (const char* key : {"activity", "attr0", "attr1", "attr2", "attr3",
                              "nope"}) {
        const std::string* got = sidecar->Get(id, sidecar->KeyId(key));
        const auto it = parsed.find(key);
        if (it == parsed.end()) {
          EXPECT_EQ(got, nullptr) << "doc " << id << " key " << key;
        } else {
          ASSERT_NE(got, nullptr) << "doc " << id << " key " << key;
          EXPECT_EQ(*got, it->second);
        }
      }
    }
  }
}

}  // namespace
}  // namespace esdb
