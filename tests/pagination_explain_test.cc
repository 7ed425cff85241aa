#include <gtest/gtest.h>

#include "cluster/esdb.h"
#include "query/dsl.h"
#include "query/parser.h"

namespace esdb {
namespace {

class PaginationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Esdb::Options options;
    options.num_shards = 8;
    options.routing = RoutingKind::kDoubleHash;  // multi-shard merge path
    options.store.refresh_doc_count = 0;
    db_ = std::make_unique<Esdb>(std::move(options));
    for (int64_t i = 0; i < 60; ++i) {
      Document doc;
      doc.Set(kFieldTenantId, Value(int64_t(1)));
      doc.Set(kFieldRecordId, Value(i));
      doc.Set(kFieldCreatedTime, Value(i));
      ASSERT_TRUE(db_->Insert(std::move(doc)).ok());
    }
    db_->RefreshAll();
  }

  std::vector<int64_t> Page(int64_t limit, int64_t offset) {
    auto result = db_->ExecuteSql(
        "SELECT * FROM t WHERE tenant_id = 1 ORDER BY record_id "
        "LIMIT " + std::to_string(limit) +
        " OFFSET " + std::to_string(offset));
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    std::vector<int64_t> records;
    for (const Document& row : result->rows) {
      records.push_back(row.record_id());
    }
    return records;
  }

  std::unique_ptr<Esdb> db_;
};

TEST_F(PaginationTest, OffsetParses) {
  auto q = ParseSql("SELECT * FROM t LIMIT 10 OFFSET 20");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->limit, 10);
  EXPECT_EQ(q->offset, 20);
  EXPECT_FALSE(ParseSql("SELECT * FROM t LIMIT 10 OFFSET").ok());
}

TEST_F(PaginationTest, PagesArePrecise) {
  EXPECT_EQ(Page(10, 0), (std::vector<int64_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(Page(5, 10), (std::vector<int64_t>{10, 11, 12, 13, 14}));
  EXPECT_EQ(Page(10, 55), (std::vector<int64_t>{55, 56, 57, 58, 59}));
}

TEST_F(PaginationTest, PagesCoverEverythingOnce) {
  std::vector<int64_t> all;
  for (int64_t offset = 0; offset < 60; offset += 7) {
    const auto page = Page(7, offset);
    all.insert(all.end(), page.begin(), page.end());
  }
  ASSERT_EQ(all.size(), 60u);
  for (int64_t i = 0; i < 60; ++i) EXPECT_EQ(all[size_t(i)], i);
}

TEST_F(PaginationTest, OffsetBeyondResultsIsEmpty) {
  EXPECT_TRUE(Page(10, 100).empty());
}

TEST_F(PaginationTest, DslFromFieldRoundTrips) {
  auto q = ParseSql("SELECT * FROM t LIMIT 10 OFFSET 20");
  ASSERT_TRUE(q.ok());
  const std::string dsl = QueryToDsl(*q);
  EXPECT_NE(dsl.find("\"from\": 20"), std::string::npos) << dsl;
  auto round = ParseDsl(dsl);
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->offset, 20);
}

TEST(ExplainTest, ShowsFrontEndTrace) {
  Esdb::Options options;
  options.num_shards = 16;
  options.routing = RoutingKind::kDynamic;
  options.store.refresh_doc_count = 0;
  Esdb db(std::move(options));
  db.dynamic_routing()->UpdateRules([](RuleList* r) { r->Update(0, 4, 7); });

  auto explained = db.ExplainSql(
      "SELECT * FROM t WHERE tenant_id = 7 AND created_time >= 1 AND "
      "created_time <= 9 AND status = 1 LIMIT 10");
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  // Every stage of the pipeline appears.
  EXPECT_NE(explained->find("parsed:"), std::string::npos);
  EXPECT_NE(explained->find("normalized:"), std::string::npos);
  // Predicate merge collapsed the time range.
  EXPECT_NE(explained->find("BETWEEN"), std::string::npos) << *explained;
  EXPECT_NE(explained->find("es-dsl:"), std::string::npos);
  // Rule-driven fan-out is visible.
  EXPECT_NE(explained->find("tenant 7 -> 4 shard(s)"), std::string::npos)
      << *explained;
  EXPECT_NE(explained->find("CompositeIndexScan"), std::string::npos)
      << *explained;
  EXPECT_NE(explained->find("DocValueScan"), std::string::npos)
      << *explained;
}

TEST(ExplainTest, BroadcastQueriesSaySo) {
  Esdb::Options options;
  options.num_shards = 4;
  options.store.refresh_doc_count = 0;
  Esdb db(std::move(options));
  auto explained = db.ExplainSql("SELECT * FROM t WHERE status = 1");
  ASSERT_TRUE(explained.ok());
  EXPECT_NE(explained->find("broadcast to all 4 shards"),
            std::string::npos);
}

}  // namespace
}  // namespace esdb
