#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/esdb.h"
#include "common/random.h"
#include "query/parser.h"
#include "support/reference_eval.h"

namespace esdb {
namespace {

TEST(GroupByParseTest, BasicShape) {
  auto q = ParseSql(
      "SELECT status, COUNT(*) FROM t WHERE tenant_id = 1 GROUP BY status");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->group_by, "status");
  EXPECT_EQ(q->agg, AggFunc::kCount);
  EXPECT_EQ(q->select_columns, std::vector<std::string>{"status"});
}

TEST(GroupByParseTest, AggregateOnly) {
  auto q = ParseSql("SELECT SUM(amount) FROM t GROUP BY status");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->agg, AggFunc::kSum);
  EXPECT_EQ(q->agg_column, "amount");
}

TEST(GroupByParseTest, RejectsInvalidShapes) {
  // Non-grouped plain column.
  EXPECT_FALSE(
      ParseSql("SELECT flag, COUNT(*) FROM t GROUP BY status").ok());
  // GROUP BY without an aggregate.
  EXPECT_FALSE(ParseSql("SELECT status FROM t GROUP BY status").ok());
  // Mixed column + aggregate without GROUP BY.
  EXPECT_FALSE(ParseSql("SELECT status, COUNT(*) FROM t").ok());
  // Two aggregates.
  EXPECT_FALSE(
      ParseSql("SELECT COUNT(*), SUM(a) FROM t GROUP BY b").ok());
}

TEST(GroupByParseTest, ToStringRoundTrips) {
  // The printed form is the query as written (EXPLAIN's parsed: line),
  // the group column included, and it reparses to itself.
  for (const std::string sql :
       {"SELECT status, AVG(amount) FROM t WHERE tenant_id = 1 "
        "GROUP BY status",
        "SELECT status, COUNT(*) FROM t GROUP BY status",
        "SELECT COUNT(*) FROM t GROUP BY status"}) {
    auto q = ParseSql(sql);
    ASSERT_TRUE(q.ok()) << sql;
    EXPECT_EQ(q->ToString(), sql);
    auto q2 = ParseSql(q->ToString());
    ASSERT_TRUE(q2.ok()) << q->ToString();
    EXPECT_EQ(q2->ToString(), sql);
  }
}

class GroupByExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Esdb::Options options;
    options.num_shards = 8;
    options.routing = RoutingKind::kDynamic;
    options.store.refresh_doc_count = 0;
    db_ = std::make_unique<Esdb>(std::move(options));
    Rng rng(7);
    for (int64_t i = 0; i < 400; ++i) {
      Document doc;
      doc.Set(kFieldTenantId, Value(int64_t(1 + i % 4)));
      doc.Set(kFieldRecordId, Value(i));
      doc.Set(kFieldCreatedTime, Value(i));
      const int64_t status = int64_t(rng.Uniform(3));
      doc.Set("status", Value(status));
      doc.Set("amount", Value(double(status * 10 + 1)));
      ASSERT_TRUE(db_->Insert(std::move(doc)).ok());
      expected_count_[status]++;
      expected_sum_[status] += double(status * 10 + 1);
    }
    db_->RefreshAll();
  }

  std::unique_ptr<Esdb> db_;
  std::map<int64_t, uint64_t> expected_count_;
  std::map<int64_t, double> expected_sum_;
};

TEST_F(GroupByExecTest, CountsPerGroupAcrossShards) {
  auto result =
      db_->ExecuteSql("SELECT status, COUNT(*) FROM t GROUP BY status");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->groups.size(), 3u);
  for (const auto& [key, group] : result->groups) {
    EXPECT_EQ(group.count, expected_count_[key.as_int()]);
  }
}

TEST_F(GroupByExecTest, SumAndAvgPerGroup) {
  auto result = db_->ExecuteSql(
      "SELECT status, AVG(amount) FROM t WHERE tenant_id IN (1, 2, 3, 4) "
      "GROUP BY status");
  ASSERT_TRUE(result.ok());
  for (const auto& [key, group] : result->groups) {
    const int64_t status = key.as_int();
    EXPECT_NEAR(group.sum, expected_sum_[status], 1e-9);
    EXPECT_NEAR(group.Avg(), double(status * 10 + 1), 1e-9);
    EXPECT_EQ(group.min->NumericValue(), double(status * 10 + 1));
  }
}

TEST_F(GroupByExecTest, TenantScopedGrouping) {
  auto result = db_->ExecuteSql(
      "SELECT status, COUNT(*) FROM t WHERE tenant_id = 1 GROUP BY status");
  ASSERT_TRUE(result.ok());
  uint64_t total = 0;
  for (const auto& [key, group] : result->groups) total += group.count;
  EXPECT_EQ(total, 100u);  // tenant 1 owns a quarter of 400 docs
}

TEST_F(GroupByExecTest, MissingColumnGroupsUnderNull) {
  auto result =
      db_->ExecuteSql("SELECT COUNT(*) FROM t GROUP BY nonexistent");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->groups.size(), 1u);
  EXPECT_TRUE(result->groups.begin()->first.is_null());
  EXPECT_EQ(result->groups.begin()->second.count, 400u);
}

// --- group_lookups ------------------------------------------------------

// Exact rendering of a value: its type plus payload, doubles by bit
// pattern (so 5 vs 5.0, -0.0 vs 0.0 and NaN payloads all show). Two
// group-key slots are one group-table entry exactly when their
// renderings match.
std::string Exact(const Value& v) {
  if (v.is_double()) {
    uint64_t bits = 0;
    const double d = v.as_double();
    std::memcpy(&bits, &d, sizeof(bits));
    return "d" + std::to_string(bits);
  }
  return std::to_string(int(v.type())) + v.ToString();
}

// Expected ExecStats::group_lookups of an unfiltered GROUP BY `column`
// broadcast: per shard, one lookup per distinct key slot among its
// live docs, plus one per NaN-keyed doc.
uint64_t ExpectedGroupLookups(Esdb* db, const std::string& column) {
  uint64_t lookups = 0;
  for (uint32_t s = 0; s < db->num_shards(); ++s) {
    const SegmentSnapshot snapshot = db->shard(ShardId(s))->Snapshot();
    std::set<std::string> distinct;
    for (const SegmentView& view : *snapshot) {
      for (DocId id = 0; id < view.num_docs(); ++id) {
        if (view.IsDeleted(id)) continue;
        auto doc = view.GetDocument(id);
        EXPECT_TRUE(doc.ok());
        if (!doc.ok()) continue;
        const Value& key = doc->Get(column);
        if (key.is_double() && std::isnan(key.as_double())) {
          ++lookups;
        } else {
          distinct.insert(Exact(key));
        }
      }
    }
    lookups += distinct.size();
  }
  return lookups;
}

TEST_F(GroupByExecTest, GroupLookupsCountDistinctSlotsPerShard) {
  // A second segment per shard whose keys mix int 5 / double 5.0,
  // -0.0 / 0.0 and NaN: compare-equal keys are still distinct slots,
  // and the first segment's keys are not looked up again.
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Value> keys = {Value(int64_t(5)), Value(5.0),
                                   Value(-0.0),       Value(0.0),
                                   Value(kNaN),       Value(int64_t(1))};
  for (int64_t i = 0; i < 96; ++i) {
    Document doc;
    doc.Set(kFieldTenantId, Value(int64_t(1 + i % 4)));
    doc.Set(kFieldRecordId, Value(1000 + i));
    doc.Set(kFieldCreatedTime, Value(1000 + i));
    doc.Set("status", keys[size_t(i) % keys.size()]);
    ASSERT_TRUE(db_->Insert(std::move(doc)).ok());
  }
  db_->RefreshAll();

  const std::string sql = "SELECT status, COUNT(*) FROM t GROUP BY status";
  const uint64_t expected = ExpectedGroupLookups(db_.get(), "status");
  auto result = db_->ExecuteSql(sql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(db_->last_stats().group_lookups, expected);
  // The table replaces the per-doc lookup the fold used to make.
  EXPECT_LT(expected, result->total_matched);
  auto explained = db_->ExplainSql(sql);
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  EXPECT_NE(explained->find("group_lookups=" + std::to_string(expected)),
            std::string::npos)
      << *explained;
}

// --- Reference oracle ---------------------------------------------------
//
// Recomputes every aggregate answer from stored documents alone: no
// index, plan, doc-value column or group table is consulted. Each
// target shard's pinned snapshot is walked in segment and doc-id order
// (the executor's candidate order), every live doc is decoded with
// GetDocument, WHERE is evaluated on the decoded document, and
// matching docs fold per doc (tests/support/reference_eval.h). Shard
// results then merge in fan-out order, as the coordinator merges them.

QueryResult ReferenceAnswer(Esdb* db, const Query& query,
                            const std::vector<ShardId>& targets) {
  QueryResult merged;
  for (ShardId shard : targets) {
    QueryResult local;
    const SegmentSnapshot snapshot = db->shard(shard)->Snapshot();
    for (const SegmentView& view : *snapshot) {
      for (DocId id = 0; id < view.num_docs(); ++id) {
        if (view.IsDeleted(id)) continue;
        auto doc = view.GetDocument(id);
        EXPECT_TRUE(doc.ok()) << doc.status().ToString();
        if (!doc.ok()) continue;
        if (query.where != nullptr &&
            !EvalWhereOnDocument(*query.where, *doc)) {
          continue;
        }
        ReferenceFoldDocument(query, *doc, &local);
      }
    }
    ReferenceMergeShard(local, &merged);
  }
  return merged;
}

std::string Exact(const std::optional<Value>& v) {
  return v ? Exact(*v) : "none";
}
std::string Exact(double d) { return Exact(Value(d)); }

std::string Describe(const QueryResult& r) {
  std::string out = "matched=" + std::to_string(r.total_matched) +
                    " count=" + std::to_string(r.agg_count) +
                    " sum=" + Exact(r.agg_sum) + " min=" + Exact(r.agg_min) +
                    " max=" + Exact(r.agg_max) + "\n";
  for (const auto& [key, group] : r.groups) {
    out += "  " + Exact(key) + ": count=" + std::to_string(group.count) +
           " sum=" + Exact(group.sum) + " min=" + Exact(group.min) +
           " max=" + Exact(group.max) + "\n";
  }
  return out;
}

// Checks `sql` against the reference answer.
// `tenant` names the tenant whose read fan-out the query routes to
// (0: broadcast to every shard in ordinal order).
void ExpectMatchesOracle(Esdb* db, const std::string& sql, TenantId tenant) {
  auto query = ParseSql(sql);
  ASSERT_TRUE(query.ok()) << sql << ": " << query.status().ToString();
  std::vector<ShardId> targets;
  if (tenant != 0) {
    targets = db->routing().RouteRead(tenant);
  } else {
    for (uint32_t s = 0; s < db->num_shards(); ++s) targets.push_back(s);
  }
  const std::string expected =
      Describe(ReferenceAnswer(db, *query, targets));
  auto result = db->ExecuteSql(sql);
  ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
  EXPECT_EQ(Describe(*result), expected) << sql;
}

class GroupByOracleTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kShards = 4;

  void SetUp() override {
    Esdb::Options options;
    options.num_shards = kShards;
    options.routing = RoutingKind::kDynamic;
    options.store.refresh_doc_count = 0;
    options.store.merge.max_segments = 3;
    options.tiering.enabled = true;  // no spill dir: cold bytes stay in RAM
    options.tiering.admission.cold_threshold = 4;
    db_ = std::make_unique<Esdb>(std::move(options));
    // Tenant 3 spreads over every shard; its read fan-out starts
    // wherever h1(3) lands and wraps, so merge order is not 0..N-1.
    db_->dynamic_routing()->UpdateRules(
        [](RuleList* rules) { rules->Update(0, kShards, 3); });

    Load(0, 480, 60);
    for (int64_t i = 0; i < 480; i += 7) Erase(i);
    // Quiet tiering cycles demote every shard: the first segments go
    // cold at the merge those cycles run.
    for (int i = 0; i < 10; ++i) db_->RunTieringCycle();
    ASSERT_GT(ColdSegments(), 0u);
    // Later hot segments, then tombstones over both tiers.
    Load(480, 720, 80);
    for (int64_t i = 3; i < 720; i += 11) Erase(i);
    db_->RefreshAll();
    ASSERT_GT(ColdSegments(), 0u);
  }

  size_t ColdSegments() const {
    size_t cold = 0;
    for (uint32_t s = 0; s < kShards; ++s) {
      for (const SegmentView& view : *db_->shard(ShardId(s))->Snapshot()) {
        if (view.is_cold()) ++cold;
      }
    }
    return cold;
  }

  static Document MakeDoc(int64_t i) {
    const double kNaN = std::numeric_limits<double>::quiet_NaN();
    const int64_t tenant = 1 + i % 6;
    Document doc;
    doc.Set(kFieldTenantId, Value(tenant));
    doc.Set(kFieldRecordId, Value(i));
    doc.Set(kFieldCreatedTime, Value(1000 + i));
    // Group keys: compare-equal pairs of different type or sign, NaN,
    // strings, a bool, a missing key. Tenant 6 also carries keys past
    // 2^53, where int-vs-double comparison stops being transitive.
    std::optional<Value> grp;
    if (tenant == 6 && i % 5 == 0) {
      grp = Value(int64_t(1) << 53 | 1);
    } else if (tenant == 6 && i % 5 == 1) {
      grp = Value(0x1p53);
    } else {
      switch ((i * 7) % 12) {
        case 0: grp = Value(int64_t(5)); break;
        case 1: grp = Value(5.0); break;
        case 2: grp = Value(-0.0); break;
        case 3: grp = Value(0.0); break;
        case 4: grp = Value(int64_t(0)); break;
        case 5: grp = Value(kNaN); break;
        case 6: grp = Value(std::string("a")); break;
        case 7: grp = Value(std::string("b")); break;
        case 8: grp = Value(true); break;
        case 9: break;  // missing
        case 10: grp = Value(int64_t(-3)); break;
        default: grp = Value(2.5); break;
      }
    }
    if (grp) doc.Set("grp", *grp);
    // Aggregate inputs: doubles that make the sum order-sensitive,
    // ints, NaN, -0.0, strings (which outrank numbers for MIN/MAX),
    // and missing values.
    std::optional<Value> val;
    switch (i % 9) {
      case 0: val = Value(double(i) * 0.1); break;
      case 1: val = Value(i); break;
      case 2: val = Value(kNaN); break;
      case 3: break;  // missing
      case 4: val = Value(-0.0); break;
      case 5: val = Value("s" + std::to_string(i % 3)); break;
      case 6: val = Value(1.5); break;
      case 7: val = Value(-i); break;
      default: val = Value(0.0); break;
    }
    if (val) doc.Set("val", *val);
    doc.Set("amt", Value(i % 7));
    return doc;
  }

  void Load(int64_t from, int64_t to, int64_t refresh_every) {
    for (int64_t i = from; i < to; ++i) {
      ASSERT_TRUE(db_->Insert(MakeDoc(i)).ok());
      if ((i + 1) % refresh_every == 0) db_->RefreshAll();
    }
    db_->RefreshAll();
  }

  void Erase(int64_t i) {
    ASSERT_TRUE(db_->Delete(1 + i % 6, i, 1000 + i).ok());
  }

  std::unique_ptr<Esdb> db_;
};

// Filters stay on NaN-free columns: a range predicate over a NaN value
// answers differently through the term index (NaN sorts above every
// number) than through Predicate::Eval (NaN compares equal to every
// number). That disagreement belongs to the filter path, not to the
// aggregate fold this oracle checks.
TEST_F(GroupByOracleTest, EveryAggregateMatchesStoredDocuments) {
  struct Shape {
    std::string sql;  // {agg} is replaced by each aggregate
    TenantId tenant;  // 0: broadcast
  };
  const std::vector<Shape> shapes = {
      {"SELECT grp, {agg} FROM t GROUP BY grp", 0},
      {"SELECT grp, {agg} FROM t WHERE tenant_id = 3 GROUP BY grp", 3},
      {"SELECT grp, {agg} FROM t WHERE tenant_id = 6 GROUP BY grp", 6},
      {"SELECT grp, {agg} FROM t WHERE amt > 3 GROUP BY grp", 0},
      {"SELECT grp, {agg} FROM t WHERE tenant_id IN (1, 6) AND "
       "record_id < 500 GROUP BY grp",
       0},
      {"SELECT val, {agg} FROM t GROUP BY val", 0},
      {"SELECT {agg} FROM t GROUP BY nope", 0},
      {"SELECT {agg} FROM t", 0},
      {"SELECT {agg} FROM t WHERE tenant_id = 3", 3},
      {"SELECT {agg} FROM t WHERE amt > 3 OR grp = 'a'", 0},
  };
  const std::vector<std::string> aggs = {"COUNT(*)", "SUM(val)", "AVG(val)",
                                         "MIN(val)", "MAX(val)"};
  for (const Shape& shape : shapes) {
    for (const std::string& agg : aggs) {
      std::string sql = shape.sql;
      sql.replace(sql.find("{agg}"), 5, agg);
      ExpectMatchesOracle(db_.get(), sql, shape.tenant);
    }
  }
}

// Key sequences under which a lookup of the same key returns different
// groups as std::map grows, because Value::Compare is not a strict weak
// order over them: a lookup lands on the smallest key that does not
// compare below it. A NaN key compares equal to every number, so it
// joins group 0 at first and group -1 once -1 is a key. Double 2^53
// compares equal to int 2^53 + 1 and to int 2^53, so it joins the
// first while it is the only one and the second once both are keys.
// The fold must follow the map, not remember the first answer.
TEST(GroupByOracleKeysTest, LookupsFollowTheMapAsItGrows) {
  Esdb::Options options;
  options.num_shards = 1;
  options.routing = RoutingKind::kHash;
  options.store.refresh_doc_count = 0;
  Esdb db(std::move(options));
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const int64_t k2p53 = int64_t(1) << 53;
  const std::vector<Value> nan_keys = {
      Value(int64_t(0)),  Value(kNaN), Value(int64_t(1)),
      Value(int64_t(-1)), Value(kNaN), Value(kNaN)};
  const std::vector<Value> big_keys = {Value(k2p53 + 1), Value(0x1p53),
                                       Value(k2p53), Value(0x1p53),
                                       Value(0x1p53)};
  for (size_t i = 0; i < nan_keys.size(); ++i) {
    Document doc;
    doc.Set(kFieldTenantId, Value(int64_t(1)));
    doc.Set(kFieldRecordId, Value(int64_t(i)));
    doc.Set(kFieldCreatedTime, Value(int64_t(i)));
    doc.Set("nan_key", nan_keys[i]);
    if (i < big_keys.size()) doc.Set("big_key", big_keys[i]);
    doc.Set("val", Value(double(i) + 0.5));
    ASSERT_TRUE(db.Insert(std::move(doc)).ok());
  }
  db.RefreshAll();
  for (const std::string column : {"nan_key", "big_key"}) {
    ExpectMatchesOracle(
        &db, "SELECT " + column + ", COUNT(*) FROM t GROUP BY " + column, 0);
    ExpectMatchesOracle(
        &db, "SELECT " + column + ", SUM(val) FROM t GROUP BY " + column, 0);
  }
}

}  // namespace
}  // namespace esdb
