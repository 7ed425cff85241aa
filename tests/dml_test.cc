#include <gtest/gtest.h>

#include "cluster/esdb.h"
#include "query/parser.h"

namespace esdb {
namespace {

TEST(DmlParseTest, DeleteShape) {
  auto stmt = ParseDml("DELETE FROM transaction_logs WHERE tenant_id = 1");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->kind, DmlStatement::Kind::kDelete);
  EXPECT_EQ(stmt->table, "transaction_logs");
  ASSERT_NE(stmt->where, nullptr);
}

TEST(DmlParseTest, UpdateShape) {
  auto stmt = ParseDml(
      "UPDATE t SET status = 2, note = 'shipped' WHERE record_id = 7");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->kind, DmlStatement::Kind::kUpdate);
  ASSERT_EQ(stmt->set.size(), 2u);
  EXPECT_EQ(stmt->set[0].first, "status");
  EXPECT_EQ(stmt->set[0].second.as_int(), 2);
  EXPECT_EQ(stmt->set[1].second.as_string(), "shipped");
}

TEST(DmlParseTest, WhereIsOptional) {
  auto stmt = ParseDml("DELETE FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->where, nullptr);
}

TEST(DmlParseTest, RejectsMalformed) {
  EXPECT_FALSE(ParseDml("DELETE t").ok());
  EXPECT_FALSE(ParseDml("UPDATE t WHERE a = 1").ok());       // missing SET
  EXPECT_FALSE(ParseDml("UPDATE t SET").ok());               // empty SET
  EXPECT_FALSE(ParseDml("UPDATE t SET a = ").ok());          // no literal
  EXPECT_FALSE(ParseDml("SELECT * FROM t").ok());            // not DML
  EXPECT_FALSE(ParseDml("DELETE FROM t WHERE a = 1 extra").ok());
}

TEST(DmlParseTest, IsDmlStatementDetection) {
  EXPECT_TRUE(IsDmlStatement("DELETE FROM t"));
  EXPECT_TRUE(IsDmlStatement("  update t set a = 1"));
  EXPECT_FALSE(IsDmlStatement("SELECT * FROM t"));
  EXPECT_FALSE(IsDmlStatement(""));
}

TEST(DmlParseTest, ToStringRoundTrips) {
  auto stmt = ParseDml("UPDATE t SET status = 2 WHERE tenant_id = 1");
  ASSERT_TRUE(stmt.ok());
  auto again = ParseDml(stmt->ToString());
  ASSERT_TRUE(again.ok()) << stmt->ToString();
  EXPECT_EQ(stmt->ToString(), again->ToString());
}

class DmlExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Esdb::Options options;
    options.num_shards = 8;
    options.routing = RoutingKind::kDynamic;
    options.store.refresh_doc_count = 0;
    db_ = std::make_unique<Esdb>(std::move(options));
    for (int64_t i = 0; i < 100; ++i) {
      Document doc;
      doc.Set(kFieldTenantId, Value(int64_t(1 + i % 4)));
      doc.Set(kFieldRecordId, Value(i));
      doc.Set(kFieldCreatedTime, Value(i));
      doc.Set("status", Value(int64_t(i % 3)));
      ASSERT_TRUE(db_->Insert(std::move(doc)).ok());
    }
    db_->RefreshAll();
  }

  uint64_t Count(const std::string& where) {
    auto r = db_->ExecuteSql("SELECT COUNT(*) FROM t WHERE " + where);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r->agg_count;
  }

  std::unique_ptr<Esdb> db_;
};

TEST_F(DmlExecTest, DeleteByPredicate) {
  const uint64_t before = Count("tenant_id = 2");
  ASSERT_GT(before, 0u);
  auto affected = db_->ExecuteDmlSql("DELETE FROM t WHERE tenant_id = 2");
  ASSERT_TRUE(affected.ok()) << affected.status().ToString();
  EXPECT_EQ(*affected, before);
  db_->RefreshAll();
  EXPECT_EQ(Count("tenant_id = 2"), 0u);
  // Other tenants untouched.
  EXPECT_EQ(Count("tenant_id = 1"), 25u);
}

TEST_F(DmlExecTest, UpdateSetsColumns) {
  auto affected = db_->ExecuteDmlSql(
      "UPDATE t SET status = 9 WHERE tenant_id = 1 AND status = 0");
  ASSERT_TRUE(affected.ok());
  ASSERT_GT(*affected, 0u);
  db_->RefreshAll();
  EXPECT_EQ(Count("tenant_id = 1 AND status = 0"), 0u);
  EXPECT_EQ(Count("tenant_id = 1 AND status = 9"), *affected);
  // Updated docs keep their other fields (record count unchanged).
  EXPECT_EQ(Count("tenant_id = 1"), 25u);
}

TEST_F(DmlExecTest, UpdateAfterRebalanceFindsOriginalShard) {
  // Commit a rule splitting tenant 1 in the future, write more docs
  // under the new rule, then a DML touching BOTH generations.
  db_->dynamic_routing()->UpdateRules([](RuleList* r) { r->Update(1000, 8, 1); });
  for (int64_t i = 100; i < 140; ++i) {
    Document doc;
    doc.Set(kFieldTenantId, Value(int64_t(1)));
    doc.Set(kFieldRecordId, Value(i));
    doc.Set(kFieldCreatedTime, Value(i + 1000));  // post-rule
    doc.Set("status", Value(int64_t(0)));
    ASSERT_TRUE(db_->Insert(std::move(doc)).ok());
  }
  db_->RefreshAll();
  auto affected =
      db_->ExecuteDmlSql("UPDATE t SET status = 7 WHERE tenant_id = 1");
  ASSERT_TRUE(affected.ok());
  EXPECT_EQ(*affected, 65u);  // 25 old + 40 new
  db_->RefreshAll();
  EXPECT_EQ(Count("tenant_id = 1 AND status = 7"), 65u);
  EXPECT_EQ(Count("tenant_id = 1"), 65u);  // no duplicates
}

// Regression: an UPDATE that modifies a routing key re-routes the
// upsert to a different shard. The old version must be deleted from
// its original shard first, or it stays live there as a duplicate.
TEST_F(DmlExecTest, UpdateChangingTenantIdMovesRowsWithoutDuplicates) {
  const uint64_t total_before = db_->TotalDocs();
  auto affected =
      db_->ExecuteDmlSql("UPDATE t SET tenant_id = 9 WHERE tenant_id = 2");
  ASSERT_TRUE(affected.ok()) << affected.status().ToString();
  EXPECT_EQ(*affected, 25u);
  db_->RefreshAll();
  EXPECT_EQ(Count("tenant_id = 2"), 0u);   // old copies gone
  EXPECT_EQ(Count("tenant_id = 9"), 25u);  // moved, once each
  EXPECT_EQ(db_->TotalDocs(), total_before);
}

TEST_F(DmlExecTest, UpdateChangingCreatedTimeAcrossRuleBoundary) {
  // Rule splits tenant 1 at t=1000: records re-dated past the
  // boundary route to a different shard run than their originals.
  db_->dynamic_routing()->UpdateRules([](RuleList* r) { r->Update(1000, 8, 1); });
  const uint64_t total_before = db_->TotalDocs();
  auto affected = db_->ExecuteDmlSql(
      "UPDATE t SET created_time = 2000 WHERE tenant_id = 1");
  ASSERT_TRUE(affected.ok()) << affected.status().ToString();
  EXPECT_EQ(*affected, 25u);
  db_->RefreshAll();
  EXPECT_EQ(Count("tenant_id = 1"), 25u);  // no strays on the old shards
  EXPECT_EQ(Count("tenant_id = 1 AND created_time = 2000"), 25u);
  EXPECT_EQ(db_->TotalDocs(), total_before);
}

TEST_F(DmlExecTest, UpdateChangingRecordIdLeavesNoStaleRow) {
  const uint64_t total_before = db_->TotalDocs();
  auto affected = db_->ExecuteDmlSql(
      "UPDATE t SET record_id = 7000 WHERE record_id = 13");
  ASSERT_TRUE(affected.ok()) << affected.status().ToString();
  EXPECT_EQ(*affected, 1u);
  db_->RefreshAll();
  EXPECT_EQ(Count("record_id = 13"), 0u);
  EXPECT_EQ(Count("record_id = 7000"), 1u);
  EXPECT_EQ(db_->TotalDocs(), total_before);
}

// Pins the documented NRT contract: DML WHERE selection sees only
// refreshed rows; buffered writes are invisible until RefreshAll.
TEST_F(DmlExecTest, DmlSelectionIgnoresUnrefreshedRows) {
  Document doc;
  doc.Set(kFieldTenantId, Value(int64_t(1)));
  doc.Set(kFieldRecordId, Value(int64_t(999)));
  doc.Set(kFieldCreatedTime, Value(int64_t(999)));
  doc.Set("status", Value(int64_t(0)));
  ASSERT_TRUE(db_->Insert(std::move(doc)).ok());
  // Buffered only: the DML's WHERE can't see it yet.
  auto affected = db_->ExecuteDmlSql(
      "UPDATE t SET status = 5 WHERE record_id = 999");
  ASSERT_TRUE(affected.ok());
  EXPECT_EQ(*affected, 0u);
  db_->RefreshAll();
  // Visible after refresh; same statement now lands.
  affected = db_->ExecuteDmlSql(
      "UPDATE t SET status = 5 WHERE record_id = 999");
  ASSERT_TRUE(affected.ok());
  EXPECT_EQ(*affected, 1u);
  db_->RefreshAll();
  EXPECT_EQ(Count("record_id = 999 AND status = 5"), 1u);
}

TEST_F(DmlExecTest, ExecuteSqlRejectsDml) {
  auto r = db_->ExecuteSql("DELETE FROM t WHERE tenant_id = 1");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(DmlExecTest, DeleteEverything) {
  auto affected = db_->ExecuteDmlSql("DELETE FROM t");
  ASSERT_TRUE(affected.ok());
  EXPECT_EQ(*affected, 100u);
  db_->RefreshAll();
  EXPECT_EQ(db_->TotalDocs(), 0u);
}


TEST(DmlParseTest, InsertShape) {
  auto stmt = ParseDml(
      "INSERT INTO t (tenant_id, record_id, created_time, status) "
      "VALUES (1, 100, 5, 2), (1, 101, 6, 0)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->kind, DmlStatement::Kind::kInsert);
  ASSERT_EQ(stmt->rows.size(), 2u);
  EXPECT_EQ(stmt->rows[0].Get("record_id").as_int(), 100);
  EXPECT_EQ(stmt->rows[1].Get("status").as_int(), 0);
}

TEST(DmlParseTest, InsertRejectsMalformed) {
  EXPECT_FALSE(ParseDml("INSERT INTO t VALUES (1)").ok());     // no columns
  EXPECT_FALSE(ParseDml("INSERT INTO t (a, b) VALUES (1)").ok());  // arity
  EXPECT_FALSE(ParseDml("INSERT INTO t (a) VALUES (1, 2)").ok());  // arity
  EXPECT_FALSE(ParseDml("INSERT INTO t (a) VALUES").ok());
  EXPECT_TRUE(IsDmlStatement("INSERT INTO t (a) VALUES (1)"));
}

TEST(DmlParseTest, InsertToStringRoundTrips) {
  auto stmt = ParseDml(
      "INSERT INTO t (tenant_id, record_id, created_time) VALUES (1, 2, 3)");
  ASSERT_TRUE(stmt.ok());
  auto again = ParseDml(stmt->ToString());
  ASSERT_TRUE(again.ok()) << stmt->ToString();
  EXPECT_EQ(again->rows.size(), 1u);
}

TEST_F(DmlExecTest, InsertStatement) {
  auto affected = db_->ExecuteDmlSql(
      "INSERT INTO t (tenant_id, record_id, created_time, status) "
      "VALUES (9, 500, 500, 1), (9, 501, 501, 1)");
  ASSERT_TRUE(affected.ok()) << affected.status().ToString();
  EXPECT_EQ(*affected, 2u);
  db_->RefreshAll();
  EXPECT_EQ(Count("tenant_id = 9"), 2u);
}

TEST_F(DmlExecTest, InsertWithDateLiteral) {
  auto affected = db_->ExecuteDmlSql(
      "INSERT INTO t (tenant_id, record_id, created_time) "
      "VALUES (8, 600, '2021-11-11 00:00:00')");
  ASSERT_TRUE(affected.ok());
  db_->RefreshAll();
  auto rows = db_->ExecuteSql("SELECT * FROM t WHERE tenant_id = 8");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_GT(rows->rows[0].created_time(), 0);
}

TEST_F(DmlExecTest, InsertMissingRoutingFieldsFails) {
  auto affected =
      db_->ExecuteDmlSql("INSERT INTO t (status) VALUES (1)");
  EXPECT_FALSE(affected.ok());
}

}  // namespace
}  // namespace esdb
