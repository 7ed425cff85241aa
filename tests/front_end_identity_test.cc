// Configuration identity: a no-node Esdb and a 4-node Esdb with
// replicas run every query through the one QueryCoordinator, so with
// the same shard count, routing rules and write stream they must
// return the same rows, groups, aggregates and match counts for every
// query class — before a live migration, in the middle of one, after
// its cutover, and after a node failure promotes replicas. Both run
// with the filter cache; the cluster side runs every query twice, so
// the second run is served from the cache across each of those
// rebinds.
//
// Both sides refresh at the same points. ORDER BY _score does not
// depend on segment layout (BM25 statistics are per pinned shard
// snapshot), so the Copying check below refreshes writes that the
// migration target will later replay into one fresh segment, and the
// relevance queries must still agree after cutover.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cluster/esdb.h"

namespace esdb {
namespace {

constexpr uint32_t kShards = 16;
constexpr int64_t kHotTenant = 7;

const std::vector<std::string>& Queries() {
  static const std::vector<std::string> kQueries = {
      // Tenant-scoped and broadcast row queries, ORDER BY the unique
      // record_id, with LIMIT/OFFSET.
      "SELECT * FROM t WHERE tenant_id = 7 ORDER BY record_id LIMIT 10 "
      "OFFSET 5",
      "SELECT * FROM t WHERE tenant_id = 7 ORDER BY record_id DESC LIMIT 20",
      "SELECT * FROM t WHERE tenant_id = 3 ORDER BY record_id DESC",
      "SELECT * FROM t WHERE status = 1 ORDER BY record_id DESC LIMIT 15 "
      "OFFSET 3",
      "SELECT * FROM t ORDER BY record_id LIMIT 25",
      // A column list.
      "SELECT record_id, amount FROM t WHERE tenant_id = 7 AND status = 0 "
      "ORDER BY record_id",
      "SELECT record_id, title FROM t WHERE amount < 10 ORDER BY record_id "
      "DESC LIMIT 30",
      // GROUP BY.
      "SELECT status, COUNT(*) FROM t GROUP BY status",
      "SELECT status, SUM(amount) FROM t WHERE tenant_id = 7 GROUP BY status",
      "SELECT status, AVG(amount) FROM t WHERE amount >= 20 GROUP BY status",
      // SUM/AVG (and the COUNT/MIN/MAX the cluster already served).
      "SELECT SUM(amount) FROM t WHERE tenant_id = 7",
      "SELECT AVG(amount) FROM t",
      "SELECT COUNT(*) FROM t WHERE tenant_id = 7",
      "SELECT MIN(amount) FROM t WHERE status = 3",
      "SELECT MAX(created_time) FROM t WHERE tenant_id = 7",
      // Relevance: ties in _score break on record_id.
      "SELECT * FROM t WHERE MATCH(title, 'red') ORDER BY _score DESC, "
      "record_id LIMIT 12",
      "SELECT record_id FROM t WHERE tenant_id = 7 AND MATCH(title, 'novel') "
      "ORDER BY _score DESC, record_id LIMIT 8",
  };
  return kQueries;
}

Document MakeLog(int64_t i) {
  static const char* const kTitles[] = {"red novel", "blue lamp",
                                        "red lamp novel", "green chair"};
  Document doc;
  doc.Set(kFieldTenantId, Value(i % 3 == 0 ? kHotTenant : 1 + i % 11));
  doc.Set(kFieldRecordId, Value(i));
  doc.Set(kFieldCreatedTime, Value(1000 + i));
  doc.Set("status", Value(i % 4));
  doc.Set("amount", Value(i % 50));
  doc.Set("title", Value(std::string(kTitles[i % 4])));
  return doc;
}

void ExpectSameResult(const QueryResult& a, const QueryResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.rows, b.rows) << what;
  EXPECT_EQ(a.total_matched, b.total_matched) << what;
  EXPECT_EQ(a.total_matched_exact, b.total_matched_exact) << what;
  EXPECT_EQ(a.agg_count, b.agg_count) << what;
  EXPECT_EQ(a.agg_sum, b.agg_sum) << what;
  EXPECT_EQ(a.agg_min, b.agg_min) << what;
  EXPECT_EQ(a.agg_max, b.agg_max) << what;
  ASSERT_EQ(a.groups.size(), b.groups.size()) << what;
  for (auto ia = a.groups.begin(), ib = b.groups.begin();
       ia != a.groups.end(); ++ia, ++ib) {
    EXPECT_EQ(ia->first, ib->first) << what;
    EXPECT_EQ(ia->second.count, ib->second.count) << what;
    EXPECT_EQ(ia->second.sum, ib->second.sum) << what;
    EXPECT_EQ(ia->second.min, ib->second.min) << what;
    EXPECT_EQ(ia->second.max, ib->second.max) << what;
  }
}

class FrontEndIdentityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Esdb::Options twin_options;
    twin_options.num_shards = kShards;
    twin_options.routing = RoutingKind::kDynamic;
    twin_options.store.refresh_doc_count = 0;
    twin_ = std::make_unique<Esdb>(std::move(twin_options));

    Esdb::Options cluster_options;
    cluster_options.num_shards = kShards;
    cluster_options.routing = RoutingKind::kDynamic;
    cluster_options.store.refresh_doc_count = 0;
    cluster_options.with_replicas = true;
    // One segment per copy step, so a migration rests in Copying.
    cluster_options.migration.copy_batch_segments = 1;
    cluster_ = std::make_unique<Esdb>(std::move(cluster_options));
    for (NodeId node = 1; node <= 4; ++node) {
      ASSERT_TRUE(cluster_->AddNode(node).ok());
    }
    // The hot tenant spreads over four shards on both sides.
    for (DynamicSecondaryHashing* routing :
         {twin_->dynamic_routing(), cluster_->dynamic_routing()}) {
      routing->UpdateRules([](RuleList* r) { r->Update(0, 4, kHotTenant); });
    }
    // Three refresh rounds: several segments per shard to copy.
    for (int64_t first = 0; first < 400; first += 150) {
      Write(first, std::min<int64_t>(150, 400 - first));
      RefreshBoth();
    }
  }

  void Write(int64_t first, int64_t n) {
    for (int64_t i = first; i < first + n; ++i) {
      const WriteOp op{OpType::kInsert, MakeLog(i)};
      ASSERT_TRUE(twin_->Apply(op).ok());
      ASSERT_TRUE(cluster_->Apply(op).ok());
    }
  }

  void RefreshBoth() {
    twin_->RefreshAll();
    cluster_->RefreshAll();
  }

  void ExpectSameAnswers(const std::string& when) {
    size_t non_empty = 0;
    uint64_t second_run_hits = 0;
    for (const std::string& sql : Queries()) {
      auto a = twin_->ExecuteSql(sql);
      auto b = cluster_->ExecuteSql(sql);
      ASSERT_TRUE(a.ok()) << sql << ": " << a.status().ToString();
      ASSERT_TRUE(b.ok()) << sql << ": " << b.status().ToString();
      ExpectSameResult(*a, *b, when + ": " + sql);
      // Again, now from the candidates the first run cached.
      const uint64_t hits = cluster_->filter_cache()->hits();
      auto cached = cluster_->ExecuteSql(sql);
      second_run_hits += cluster_->filter_cache()->hits() - hits;
      ASSERT_TRUE(cached.ok()) << sql << ": " << cached.status().ToString();
      ExpectSameResult(*a, *cached, when + " (cached): " + sql);
      if (!a->rows.empty() || !a->groups.empty() || a->agg_count > 0) {
        ++non_empty;
      }
    }
    // Every query has something to compare.
    EXPECT_EQ(non_empty, Queries().size()) << when;
    EXPECT_GT(second_run_hits, 0u) << when;
  }

  void ExpectSameDml(const std::string& sql) {
    auto a = twin_->ExecuteDmlSql(sql);
    auto b = cluster_->ExecuteDmlSql(sql);
    ASSERT_TRUE(a.ok()) << sql << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << sql << ": " << b.status().ToString();
    EXPECT_EQ(*a, *b) << sql;
    EXPECT_GT(*b, 0u) << sql;
  }

  // The hot tenant's first shard: a migration there moves data every
  // tenant-scoped hot query reads.
  ShardId HotShard() {
    return cluster_->dynamic_routing()->RouteRead(kHotTenant).front();
  }

  NodeId OtherNode(ShardId shard) {
    const NodeId from = cluster_->PrimaryNodeOf(shard);
    return from == 1 ? 2 : 1;
  }

  std::unique_ptr<Esdb> twin_;
  std::unique_ptr<Esdb> cluster_;
};

TEST_F(FrontEndIdentityTest, SameAnswersAcrossMigrationAndFailover) {
  ExpectSameAnswers("before migration");

  // Mid-migration, Copying: writes before and between copy steps
  // queue for the target.
  const ShardId shard = HotShard();
  const NodeId to = OtherNode(shard);
  ASSERT_TRUE(cluster_->StartMigration(shard, to).ok());
  Write(400, 40);
  ASSERT_TRUE(cluster_->migrator()->Drive(shard).ok());
  Write(440, 40);
  ASSERT_EQ(cluster_->MigrationPhaseOf(shard), MigrationPhase::kCopying);
  RefreshBoth();
  ASSERT_EQ(cluster_->MigrationPhaseOf(shard), MigrationPhase::kCopying);
  ExpectSameAnswers("mid-migration (copying)");
  // DML writes reach the migrating shard through the migrator, like
  // any other write.
  ExpectSameDml("UPDATE t SET amount = 99 WHERE tenant_id = 7 AND status = 1");

  // Mid-migration, DualWrite: writes mirror into the target.
  while (cluster_->MigrationPhaseOf(shard) == MigrationPhase::kCopying) {
    ASSERT_TRUE(cluster_->migrator()->Drive(shard).ok());
  }
  ASSERT_EQ(cluster_->MigrationPhaseOf(shard), MigrationPhase::kDualWrite);
  ExpectSameDml("DELETE FROM t WHERE tenant_id = 7 AND status = 2");
  ExpectSameDml("DELETE FROM t WHERE record_id < 20");
  ExpectSameDml("UPDATE t SET status = 3 WHERE amount = 33");
  for (const std::string sql :
       {"SELECT * FROM t WHERE tenant_id = 7 ORDER BY record_id LIMIT 5",
        "SELECT status, COUNT(*) FROM t GROUP BY status"}) {
    auto a = twin_->ExplainSql(sql);
    auto b = cluster_->ExplainSql(sql);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(*a, *b);
    EXPECT_NE(b->find("transform:"), std::string::npos) << *b;
    EXPECT_NE(b->find("cardinality:"), std::string::npos) << *b;
  }
  ASSERT_EQ(cluster_->MigrationPhaseOf(shard), MigrationPhase::kDualWrite);
  ExpectSameAnswers("mid-migration (dual write), after DML");

  // Cutover, then the migrated and mirrored writes become searchable.
  EXPECT_EQ(cluster_->DriveMigrations(), 1u);
  EXPECT_EQ(cluster_->MigrationPhaseOf(shard), MigrationPhase::kDone);
  EXPECT_EQ(cluster_->PrimaryNodeOf(shard), to);
  Write(480, 30);
  RefreshBoth();
  ExpectSameAnswers("after cutover");

  // The migrated shard's new node dies: its replica is promoted.
  ASSERT_TRUE(cluster_->FailNode(to).ok());
  EXPECT_GT(cluster_->failovers(), 0u);
  twin_->RefreshAll();  // FailNode refreshed the cluster
  ExpectSameAnswers("after FailNode");
  EXPECT_EQ(twin_->TotalDocs(), cluster_->TotalDocs());
}

TEST_F(FrontEndIdentityTest, ClusterRejectsDmlOnTheQueryEntryPoint) {
  EXPECT_FALSE(cluster_->ExecuteSql("DELETE FROM t WHERE record_id = 1").ok());
  auto affected = cluster_->ExecuteDmlSql(
      "INSERT INTO t (tenant_id, record_id, created_time) VALUES (1, 9000, "
      "5000)");
  ASSERT_TRUE(affected.ok()) << affected.status().ToString();
  EXPECT_EQ(*affected, 1u);
}

}  // namespace
}  // namespace esdb
