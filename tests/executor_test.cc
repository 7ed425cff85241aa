#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "query/executor.h"
#include "query/normalize.h"
#include "query/optimizer.h"
#include "query/parser.h"
#include "storage/shard_store.h"
#include "support/reference_eval.h"

namespace esdb {
namespace {

IndexSpec TestSpec() {
  IndexSpec spec;
  spec.text_fields = {"title"};
  spec.composite_indexes = {{"tenant_id", "created_time"}};
  spec.scan_fields = {"status", "flag"};
  spec.indexed_sub_attributes = {"activity"};
  return spec;
}

// Builds a store with deterministic pseudo-random transaction logs.
std::unique_ptr<ShardStore> BuildStore(const IndexSpec* spec, int num_docs,
                                       uint64_t seed,
                                       int refresh_every = 37) {
  ShardStore::Options options;
  options.refresh_doc_count = 0;
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
    op.doc.Set("status", Value(int64_t(rng.Uniform(4))));
    op.doc.Set("flag", Value(int64_t(rng.Uniform(2))));
    op.doc.Set("group", Value(int64_t(rng.Uniform(20))));
    op.doc.Set("amount", Value(double(rng.Uniform(1000)) / 10.0));
    op.doc.Set("title", Value(std::string(titles[rng.Uniform(5)])));
    op.doc.Set(kFieldAttributes,
               Value("activity:" + std::string(activities[rng.Uniform(3)]) +
                     ";size:" + std::to_string(rng.Uniform(5))));
    EXPECT_TRUE(store->Apply(op).ok());
    if (i % refresh_every == refresh_every - 1) store->Refresh();
  }
  store->Refresh();
  return store;
}

std::vector<int64_t> BruteForce(const ShardStore& store, const Expr* where) {
  std::vector<int64_t> out;
  const SegmentSnapshot snapshot = store.Snapshot();
  for (const SegmentView& seg : *snapshot) {
    const PostingList live = seg.LiveDocs();
    for (DocId id : live.ids()) {
      auto doc = seg->GetDocument(id);
      EXPECT_TRUE(doc.ok());
      if (where == nullptr || EvalWhereOnDocument(*where, *doc)) {
        out.push_back(doc->record_id());
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<int64_t> RunPlan(const ShardStore& store, const Query& query,
                             const IndexSpec& spec,
                             const PlannerOptions& planner) {
  std::unique_ptr<Expr> normalized;
  if (query.where != nullptr) {
    normalized = NormalizeForPlanning(query.where->Clone());
  }
  auto plan = PlanWhere(normalized.get(), spec, planner);
  ExecStats stats;
  auto result = ExecuteOnShard(query, *plan, *store.Snapshot(), &stats);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  std::vector<int64_t> out;
  for (const Document& doc : result->rows) out.push_back(doc.record_id());
  std::sort(out.begin(), out.end());
  return out;
}

Query ParseQuery(std::string_view sql) {
  auto q = ParseSql(sql);
  EXPECT_TRUE(q.ok()) << sql << ": " << q.status().ToString();
  return std::move(q).value();
}

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_ = TestSpec();
    store_ = BuildStore(&spec_, 500, 77);
  }

  void ExpectMatchesBruteForce(const std::string& sql) {
    const Query query = ParseQuery(sql);
    const auto expected = BruteForce(*store_, query.where.get());
    // RBO plan and Lucene-baseline plan must both agree with brute
    // force.
    PlannerOptions rbo;
    EXPECT_EQ(RunPlan(*store_, query, spec_, rbo), expected) << sql;
    PlannerOptions baseline;
    baseline.use_composite_index = false;
    baseline.use_scan_list = false;
    EXPECT_EQ(RunPlan(*store_, query, spec_, baseline), expected) << sql;
  }

  IndexSpec spec_;
  std::unique_ptr<ShardStore> store_;
};

TEST_F(ExecutorTest, PaperStyleQuery) {
  ExpectMatchesBruteForce(
      "SELECT * FROM t WHERE tenant_id = 1 AND created_time BETWEEN 100 AND "
      "600 AND status = 1 OR group = 7");
}

TEST_F(ExecutorTest, CompositePlusFilters) {
  ExpectMatchesBruteForce(
      "SELECT * FROM t WHERE tenant_id = 2 AND created_time >= 500 AND "
      "status = 0 AND flag = 1");
}

TEST_F(ExecutorTest, SingleColumnPredicates) {
  ExpectMatchesBruteForce("SELECT * FROM t WHERE group = 3");
  ExpectMatchesBruteForce("SELECT * FROM t WHERE amount >= 50.0");
  ExpectMatchesBruteForce("SELECT * FROM t WHERE record_id IN (1, 5, 9)");
}

TEST_F(ExecutorTest, FullTextMatch) {
  ExpectMatchesBruteForce(
      "SELECT * FROM t WHERE tenant_id = 3 AND MATCH(title, 'novel')");
  ExpectMatchesBruteForce("SELECT * FROM t WHERE MATCH(title, 'cotton shirt')");
}

TEST_F(ExecutorTest, LikePostFilter) {
  ExpectMatchesBruteForce(
      "SELECT * FROM t WHERE tenant_id = 1 AND title LIKE '%novel%'");
}

TEST_F(ExecutorTest, SubAttributePredicates) {
  // Indexed sub-attribute.
  ExpectMatchesBruteForce(
      "SELECT * FROM t WHERE tenant_id = 1 AND attributes.activity = "
      "'promo'");
  // Non-indexed sub-attribute: scan fallback.
  ExpectMatchesBruteForce(
      "SELECT * FROM t WHERE tenant_id = 1 AND attributes.size = '3'");
}

TEST_F(ExecutorTest, NegationsAndNulls) {
  ExpectMatchesBruteForce("SELECT * FROM t WHERE status != 2");
  ExpectMatchesBruteForce(
      "SELECT * FROM t WHERE tenant_id = 1 AND NOT (status = 1 OR flag = 0)");
  ExpectMatchesBruteForce("SELECT * FROM t WHERE missing_col IS NULL");
  ExpectMatchesBruteForce("SELECT * FROM t WHERE status IS NOT NULL");
  ExpectMatchesBruteForce("SELECT * FROM t WHERE tenant_id NOT IN (1, 2)");
}

TEST_F(ExecutorTest, ConstantFalse) {
  ExpectMatchesBruteForce(
      "SELECT * FROM t WHERE created_time > 900 AND created_time < 100");
}

TEST_F(ExecutorTest, NoWhereClause) {
  ExpectMatchesBruteForce("SELECT * FROM t WHERE record_id >= 0");
  const Query q = ParseQuery("SELECT * FROM t");
  const auto expected = BruteForce(*store_, nullptr);
  EXPECT_EQ(RunPlan(*store_, q, spec_, PlannerOptions{}), expected);
}

// Property: random queries agree with brute force under both planner
// configurations (the paper's optimizer must change cost, not
// results).
TEST_F(ExecutorTest, RandomQueriesMatchBruteForce) {
  Rng rng(55);
  for (int trial = 0; trial < 60; ++trial) {
    std::string sql = "SELECT * FROM t WHERE tenant_id = " +
                      std::to_string(1 + rng.Uniform(5));
    if (rng.Bernoulli(0.8)) {
      const int64_t lo = int64_t(rng.Uniform(900));
      sql += " AND created_time BETWEEN " + std::to_string(lo) + " AND " +
             std::to_string(lo + int64_t(rng.Uniform(300)));
    }
    if (rng.Bernoulli(0.6)) {
      sql += " AND status = " + std::to_string(rng.Uniform(4));
    }
    if (rng.Bernoulli(0.4)) {
      sql += " AND group IN (" + std::to_string(rng.Uniform(20)) + ", " +
             std::to_string(rng.Uniform(20)) + ")";
    }
    if (rng.Bernoulli(0.3)) {
      sql += " AND (flag = 0 OR amount >= " +
             std::to_string(rng.Uniform(90)) + ")";
    }
    if (rng.Bernoulli(0.3)) sql += " AND MATCH(title, 'novel')";
    ExpectMatchesBruteForce(sql);
  }
}

TEST_F(ExecutorTest, OrderByAndLimit) {
  const Query q = ParseQuery(
      "SELECT * FROM t WHERE tenant_id = 1 ORDER BY created_time DESC "
      "LIMIT 10");
  auto plan =
      PlanWhere(q.where.get(), spec_, PlannerOptions{});
  ExecStats stats;
  auto result = ExecuteOnShard(q, *plan, *store_->Snapshot(), &stats);
  ASSERT_TRUE(result.ok());
  ASSERT_LE(result->rows.size(), 10u);
  for (size_t i = 1; i < result->rows.size(); ++i) {
    EXPECT_GE(result->rows[i - 1].created_time(),
              result->rows[i].created_time());
  }
}

TEST_F(ExecutorTest, EarlyStopWithoutOrderBy) {
  const Query q = ParseQuery("SELECT * FROM t WHERE tenant_id = 1 LIMIT 3");
  auto plan = PlanWhere(q.where.get(), spec_, PlannerOptions{});
  ExecStats stats;
  auto result = ExecuteOnShard(q, *plan, *store_->Snapshot(), &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 3u);
}

TEST_F(ExecutorTest, Projection) {
  const Query q =
      ParseQuery("SELECT record_id, status FROM t WHERE tenant_id = 1");
  auto plan = PlanWhere(q.where.get(), spec_, PlannerOptions{});
  ExecStats stats;
  auto shard = ExecuteOnShard(q, *plan, *store_->Snapshot(), &stats);
  ASSERT_TRUE(shard.ok());
  std::vector<QueryResult> results;
  results.push_back(std::move(shard).value());
  const QueryResult merged = AggregateResults(q, std::move(results));
  ASSERT_FALSE(merged.rows.empty());
  EXPECT_EQ(merged.rows[0].size(), 2u);
  EXPECT_TRUE(merged.rows[0].Has("record_id"));
}

TEST_F(ExecutorTest, Aggregates) {
  const Query count_q = ParseQuery("SELECT COUNT(*) FROM t WHERE flag = 1");
  auto plan = PlanWhere(count_q.where.get(), spec_, PlannerOptions{});
  ExecStats stats;
  auto result = ExecuteOnShard(count_q, *plan, *store_->Snapshot(), &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->agg_count,
            BruteForce(*store_, count_q.where.get()).size());

  const Query sum_q = ParseQuery("SELECT SUM(amount) FROM t");
  auto plan2 = PlanWhere(nullptr, spec_, PlannerOptions{});
  auto sum_result = ExecuteOnShard(sum_q, *plan2, *store_->Snapshot(), &stats);
  ASSERT_TRUE(sum_result.ok());
  double expected = 0;
  const SegmentSnapshot snapshot = store_->Snapshot();
  for (const SegmentView& seg : *snapshot) {
    const PostingList live = seg.LiveDocs();
    for (DocId id : live.ids()) {
      expected += seg->GetDocument(id)->Get("amount").NumericValue();
    }
  }
  EXPECT_NEAR(sum_result->agg_sum, expected, 1e-6);
}

TEST_F(ExecutorTest, AggregateResultsMergesAcrossShards) {
  Query q = ParseQuery("SELECT COUNT(*) FROM t");
  QueryResult a, b;
  a.agg_count = 3;
  a.agg_sum = 1.5;
  a.agg_min = Value(int64_t(1));
  b.agg_count = 2;
  b.agg_sum = 2.5;
  b.agg_min = Value(int64_t(-4));
  std::vector<QueryResult> parts;
  parts.push_back(std::move(a));
  parts.push_back(std::move(b));
  const QueryResult merged = AggregateResults(q, std::move(parts));
  EXPECT_EQ(merged.agg_count, 5u);
  EXPECT_DOUBLE_EQ(merged.agg_sum, 4.0);
  EXPECT_EQ(merged.agg_min->as_int(), -4);
}

TEST_F(ExecutorTest, DeletedDocsExcluded) {
  WriteOp del;
  del.type = OpType::kDelete;
  del.doc.Set(kFieldTenantId, Value(int64_t(1)));
  del.doc.Set(kFieldRecordId, Value(int64_t(0)));
  del.doc.Set(kFieldCreatedTime, Value(int64_t(0)));
  ASSERT_TRUE(store_->Apply(del).ok());
  // Tombstone applies without refresh (delete hits the segment map).
  ExpectMatchesBruteForce("SELECT * FROM t WHERE record_id = 0");
}

// Plan-shape assertions: the RBO picks the access paths Section 5.1
// describes.
TEST(OptimizerShapeTest, CompositeLongestMatch) {
  IndexSpec spec = TestSpec();
  auto q = ParseQuery(
      "SELECT * FROM t WHERE tenant_id = 1 AND created_time BETWEEN 1 AND 2 "
      "AND group = 5");
  auto normalized = NormalizeForPlanning(q.where->Clone());
  auto plan = PlanWhere(normalized.get(), spec, PlannerOptions{});
  const std::string rendered = plan->ToString();
  EXPECT_NE(rendered.find("CompositeIndexScan tenant_id_created_time"),
            std::string::npos)
      << rendered;
  // group has no composite/scan entry: single-column index search.
  EXPECT_NE(rendered.find("IndexSearch group"), std::string::npos)
      << rendered;
}

TEST(OptimizerShapeTest, ScanListBecomesDocValueFilter) {
  IndexSpec spec = TestSpec();
  auto q = ParseQuery(
      "SELECT * FROM t WHERE tenant_id = 1 AND status = 1");
  auto plan = PlanWhere(q.where.get(), spec, PlannerOptions{});
  const std::string rendered = plan->ToString();
  EXPECT_NE(rendered.find("DocValueScan [status = 1]"), std::string::npos)
      << rendered;
}

TEST(OptimizerShapeTest, ScanFieldAloneUsesItsIndex) {
  IndexSpec spec = TestSpec();
  auto q = ParseQuery("SELECT * FROM t WHERE status = 1");
  auto plan = PlanWhere(q.where.get(), spec, PlannerOptions{});
  EXPECT_EQ(plan->kind, PlanNode::Kind::kTermLookup);
}

TEST(OptimizerShapeTest, BaselineUsesSingleColumnIndexes) {
  IndexSpec spec = TestSpec();
  PlannerOptions baseline;
  baseline.use_composite_index = false;
  baseline.use_scan_list = false;
  auto q = ParseQuery(
      "SELECT * FROM t WHERE tenant_id = 1 AND created_time BETWEEN 1 AND 9 "
      "AND status = 1");
  auto plan = PlanWhere(q.where.get(), spec, baseline);
  const std::string rendered = plan->ToString();
  EXPECT_EQ(rendered.find("CompositeIndexScan"), std::string::npos);
  EXPECT_NE(rendered.find("IndexRangeSearch created_time"),
            std::string::npos)
      << rendered;
}

TEST(OptimizerShapeTest, OrBecomesUnion) {
  IndexSpec spec = TestSpec();
  auto q = ParseQuery("SELECT * FROM t WHERE group = 1 OR group = 2");
  // Without normalization the OR survives; with merge it becomes IN.
  auto plan = PlanWhere(q.where.get(), spec, PlannerOptions{});
  EXPECT_TRUE(plan->kind == PlanNode::Kind::kUnion ||
              plan->kind == PlanNode::Kind::kTermLookup);
}

TEST(OptimizerShapeTest, ConstantFalseIsEmptyPlan) {
  IndexSpec spec = TestSpec();
  auto q = ParseQuery("SELECT * FROM t WHERE a > 5 AND a < 2");
  auto normalized = NormalizeForPlanning(q.where->Clone());
  auto plan = PlanWhere(normalized.get(), spec, PlannerOptions{});
  EXPECT_EQ(plan->kind, PlanNode::Kind::kEmpty);
}

// The optimizer's purpose: fewer postings touched on multi-column
// queries (Figure 17's mechanism).
TEST_F(ExecutorTest, OptimizerReducesPostingsConsidered) {
  const Query q = ParseQuery(
      "SELECT * FROM t WHERE tenant_id = 1 AND created_time BETWEEN 0 AND "
      "999 AND status = 1 AND flag = 0");
  auto normalized = NormalizeForPlanning(q.where->Clone());

  auto rbo_plan = PlanWhere(normalized.get(), spec_, PlannerOptions{});
  ExecStats rbo_stats;
  ASSERT_TRUE(
      ExecuteOnShard(q, *rbo_plan, *store_->Snapshot(), &rbo_stats).ok());

  PlannerOptions baseline;
  baseline.use_composite_index = false;
  baseline.use_scan_list = false;
  auto base_plan = PlanWhere(normalized.get(), spec_, baseline);
  ExecStats base_stats;
  ASSERT_TRUE(
      ExecuteOnShard(q, *base_plan, *store_->Snapshot(), &base_stats).ok());

  EXPECT_LT(rbo_stats.postings_considered, base_stats.postings_considered);
}

}  // namespace
}  // namespace esdb
