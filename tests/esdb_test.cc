#include <gtest/gtest.h>

#include <set>

#include "cluster/esdb.h"
#include "cluster/write_client.h"
#include "document/json.h"
#include "common/random.h"

namespace esdb {
namespace {

Document MakeLog(int64_t tenant, int64_t record, int64_t time,
                 int64_t status = 0) {
  Document doc;
  doc.Set(kFieldTenantId, Value(tenant));
  doc.Set(kFieldRecordId, Value(record));
  doc.Set(kFieldCreatedTime, Value(time));
  doc.Set("status", Value(status));
  return doc;
}

Esdb::Options SmallCluster(RoutingKind routing) {
  Esdb::Options options;
  options.num_shards = 16;
  options.routing = routing;
  options.store.refresh_doc_count = 0;
  return options;
}

TEST(EsdbTest, WriteRequiresRoutingFields) {
  Esdb db(SmallCluster(RoutingKind::kDynamic));
  Document doc;
  doc.Set("x", Value(int64_t(1)));
  EXPECT_FALSE(db.Insert(std::move(doc)).ok());
}

TEST(EsdbTest, InsertQueryRoundTrip) {
  Esdb db(SmallCluster(RoutingKind::kDynamic));
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(db.Insert(MakeLog(1 + i % 5, i, i, i % 3)).ok());
  }
  db.RefreshAll();
  auto result = db.ExecuteSql(
      "SELECT * FROM t WHERE tenant_id = 3 AND status = 1");
  ASSERT_TRUE(result.ok());
  for (const Document& row : result->rows) {
    EXPECT_EQ(row.tenant_id(), 3);
    EXPECT_EQ(row.Get("status").as_int(), 1);
  }
  EXPECT_GT(result->rows.size(), 0u);
}

// A selected "attributes.<key>" column projects the sub-attribute that
// WHERE matched on, not null.
TEST(EsdbTest, ProjectsSubAttributeColumns) {
  Esdb db(SmallCluster(RoutingKind::kDynamic));
  for (int64_t i = 0; i < 40; ++i) {
    Document doc = MakeLog(1 + i % 2, i, i);
    doc.Set(kFieldAttributes,
            Value(EncodeAttributes({{"attr0", i % 4 < 2 ? "v11" : "v7"},
                                    {"attr1", std::to_string(100 + i)}})));
    ASSERT_TRUE(db.Insert(std::move(doc)).ok());
  }
  db.RefreshAll();
  auto result = db.ExecuteSql(
      "SELECT record_id, attributes.attr0 FROM t WHERE tenant_id = 1 AND "
      "attributes.attr0 = 'v11' LIMIT 2");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 2u);
  for (const Document& row : result->rows) {
    EXPECT_EQ(row.Get("attributes.attr0"), Value("v11")) << ToJson(row);
    EXPECT_TRUE(row.Get(kFieldRecordId).is_int()) << ToJson(row);
  }
  // Sorted by the sub-attribute it projects; a key no row has
  // projects as null.
  result = db.ExecuteSql(
      "SELECT record_id, attributes.attr1, attributes.nope FROM t WHERE "
      "tenant_id = 2 ORDER BY attributes.attr1 LIMIT 3");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 3u);
  for (const Document& row : result->rows) {
    EXPECT_EQ(row.Get("attributes.attr1"),
              Value(std::to_string(100 + row.Get(kFieldRecordId).as_int())))
        << ToJson(row);
    EXPECT_TRUE(row.Get("attributes.nope").is_null()) << ToJson(row);
  }
}

TEST(EsdbTest, TenantScopedQueryTouchesRouteReadShards) {
  Esdb db(SmallCluster(RoutingKind::kDoubleHash));
  ASSERT_TRUE(db.Insert(MakeLog(1, 1, 1)).ok());
  db.RefreshAll();
  ASSERT_TRUE(db.ExecuteSql("SELECT * FROM t WHERE tenant_id = 1").ok());
  EXPECT_EQ(db.last_subqueries(), 8u);  // double hashing default s = 8
  // Non-tenant query broadcasts.
  ASSERT_TRUE(db.ExecuteSql("SELECT * FROM t WHERE status = 0").ok());
  EXPECT_EQ(db.last_subqueries(), 16u);
}

TEST(EsdbTest, UpdateAndDelete) {
  Esdb db(SmallCluster(RoutingKind::kDynamic));
  ASSERT_TRUE(db.Insert(MakeLog(1, 7, 100, 0)).ok());
  ASSERT_TRUE(db.Update(MakeLog(1, 7, 100, 9)).ok());
  db.RefreshAll();
  auto result = db.ExecuteSql("SELECT * FROM t WHERE tenant_id = 1");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0].Get("status").as_int(), 9);

  ASSERT_TRUE(db.Delete(1, 7, 100).ok());
  db.RefreshAll();
  result = db.ExecuteSql("SELECT * FROM t WHERE tenant_id = 1");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->rows.empty());
}

// The paper's core end-to-end invariant: a rebalance mid-stream must
// not lose read-your-writes consistency — every record written before
// or after the rule change stays visible, and updates/deletes reach
// the right shard.
TEST(EsdbIntegration, RebalancePreservesReadYourWrites) {
  Esdb::Options options = SmallCluster(RoutingKind::kDynamic);
  options.balancer.hotspot_threshold = 0.2;
  options.balancer.target_share_per_shard = 0.05;
  Esdb db(options);

  // Phase 1: tenant 9 is hot; everything lands on one shard.
  Micros now = 1000;
  int64_t record = 0;
  for (int i = 0; i < 200; ++i) {
    const int64_t tenant = (i % 2 == 0) ? 9 : 1 + i % 7;
    ASSERT_TRUE(db.Insert(MakeLog(tenant, record++, now++)).ok());
  }
  // Rebalance: hotspot detection commits a rule effective at now+10.
  const Micros effective = now + 10;
  ASSERT_GT(db.RunBalanceCycle(effective), 0u);
  const uint32_t s_after = db.dynamic_routing()->rules().MaxOffset(9);
  EXPECT_GT(s_after, 1u);

  // Phase 2: writes continue after the effective time.
  now = effective + 1;
  for (int i = 0; i < 200; ++i) {
    const int64_t tenant = (i % 2 == 0) ? 9 : 1 + i % 7;
    ASSERT_TRUE(db.Insert(MakeLog(tenant, record++, now++)).ok());
  }
  db.RefreshAll();

  // All of tenant 9's records (both phases) are found.
  auto result = db.ExecuteSql(
      "SELECT COUNT(*) FROM t WHERE tenant_id = 9");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->agg_count, 200u);

  // Updates and deletes of PRE-rule records route to their original
  // shard via creation-time rule matching.
  ASSERT_TRUE(db.Update(MakeLog(9, 0, 1000, 42)).ok());
  ASSERT_TRUE(db.Delete(9, 2, 1002).ok());
  db.RefreshAll();
  result = db.ExecuteSql("SELECT COUNT(*) FROM t WHERE tenant_id = 9");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->agg_count, 199u);  // one deleted
  auto updated =
      db.ExecuteSql("SELECT * FROM t WHERE tenant_id = 9 AND status = 42");
  ASSERT_TRUE(updated.ok());
  ASSERT_EQ(updated->rows.size(), 1u);
  EXPECT_EQ(updated->rows[0].record_id(), 0);

  // No duplicates: the update replaced the old copy, wherever it was.
  auto all = db.ExecuteSql("SELECT * FROM t WHERE tenant_id = 9");
  ASSERT_TRUE(all.ok());
  std::set<int64_t> records;
  for (const Document& row : all->rows) {
    EXPECT_TRUE(records.insert(row.record_id()).second)
        << "duplicate record " << row.record_id();
  }
}

TEST(EsdbIntegration, DynamicSpreadsHotTenantAcrossShards) {
  Esdb::Options options = SmallCluster(RoutingKind::kDynamic);
  options.balancer.hotspot_threshold = 0.5;
  options.balancer.target_share_per_shard = 0.1;
  Esdb db(options);
  Micros now = 0;
  int64_t record = 0;
  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(db.Insert(MakeLog(5, record++, now++)).ok());
  }
  ASSERT_GT(db.RunBalanceCycle(now + 5), 0u);
  now += 10;
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(db.Insert(MakeLog(5, record++, now++)).ok());
  }
  db.RefreshAll();
  // Count shards holding tenant-5 docs.
  size_t shards_with_docs = 0;
  for (size_t count : db.ShardDocCounts()) {
    if (count > 0) ++shards_with_docs;
  }
  EXPECT_GT(shards_with_docs, 1u);
  EXPECT_EQ(db.TotalDocs(), 550u);
}

TEST(EsdbIntegration, InitializeRulesFromStorage) {
  Esdb::Options options = SmallCluster(RoutingKind::kDynamic);
  options.balancer.target_share_per_shard = 0.1;
  Esdb db(options);
  for (int64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(db.Insert(MakeLog(/*tenant=*/1, i, i)).ok());
  }
  for (int64_t i = 300; i < 330; ++i) {
    ASSERT_TRUE(db.Insert(MakeLog(/*tenant=*/2, i, i)).ok());
  }
  db.RefreshAll();
  ASSERT_GT(db.InitializeRulesFromStorage(/*effective_time=*/1000), 0u);
  EXPECT_GT(db.dynamic_routing()->rules().MaxOffset(1), 1u);
  EXPECT_EQ(db.dynamic_routing()->rules().MaxOffset(2), 1u);
}

// Regression: the initialization scan must count buffered (not yet
// refreshed) docs too — a freshly loaded cluster would otherwise look
// empty and seed no rules at all.
TEST(EsdbIntegration, InitializeRulesFromStorageSeesBufferedDocs) {
  Esdb::Options options = SmallCluster(RoutingKind::kDynamic);
  options.balancer.target_share_per_shard = 0.1;
  Esdb db(options);
  // Same skew as InitializeRulesFromStorage above, but nothing is
  // refreshed: all 330 docs sit in the shard write buffers.
  for (int64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(db.Insert(MakeLog(/*tenant=*/1, i, i)).ok());
  }
  for (int64_t i = 300; i < 330; ++i) {
    ASSERT_TRUE(db.Insert(MakeLog(/*tenant=*/2, i, i)).ok());
  }
  for (uint32_t i = 0; i < db.num_shards(); ++i) {
    EXPECT_EQ(db.shard(ShardId(i))->num_live_docs(), 0u);
  }
  ASSERT_GT(db.InitializeRulesFromStorage(/*effective_time=*/1000), 0u);
  EXPECT_GT(db.dynamic_routing()->rules().MaxOffset(1), 1u);
  EXPECT_EQ(db.dynamic_routing()->rules().MaxOffset(2), 1u);
}

TEST(EsdbIntegration, WorksWithReplicasEnabled) {
  Esdb::Options options = SmallCluster(RoutingKind::kDynamic);
  options.with_replicas = true;
  options.replication = ReplicationMode::kPhysical;
  Esdb db(options);
  for (int64_t i = 0; i < 60; ++i) {
    ASSERT_TRUE(db.Insert(MakeLog(1 + i % 3, i, i)).ok());
  }
  db.RefreshAll();
  auto result = db.ExecuteSql("SELECT COUNT(*) FROM t WHERE tenant_id = 1");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->agg_count, 20u);
  EXPECT_GT(db.TotalReplicationStats().bytes_copied, 0u);
}

TEST(WriteClientTest, BatchingCoalescesSameRecord) {
  Esdb db(SmallCluster(RoutingKind::kDynamic));
  WriteClient::Options wopts;
  wopts.batch_size = 1000;
  WriteClient client(&db, wopts);
  // 10 records, 10 modifications each.
  for (int round = 0; round < 10; ++round) {
    for (int64_t record = 0; record < 10; ++record) {
      WriteOp op;
      op.type = OpType::kUpdate;
      op.doc = MakeLog(1, record, 100, round);
      ASSERT_TRUE(client.Enqueue(std::move(op)).ok());
    }
  }
  ASSERT_TRUE(client.Flush().ok());
  EXPECT_EQ(client.enqueued_ops(), 100u);
  EXPECT_EQ(client.applied_ops(), 10u);   // only final states written
  EXPECT_EQ(client.coalesced_ops(), 90u);
  db.RefreshAll();
  auto result = db.ExecuteSql("SELECT * FROM t WHERE tenant_id = 1");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 10u);
  for (const Document& row : result->rows) {
    EXPECT_EQ(row.Get("status").as_int(), 9);  // last round won
  }
}

TEST(WriteClientTest, BatchingDisabledAppliesEverything) {
  Esdb db(SmallCluster(RoutingKind::kDynamic));
  WriteClient::Options wopts;
  wopts.workload_batching = false;
  wopts.batch_size = 1000;
  WriteClient client(&db, wopts);
  for (int i = 0; i < 20; ++i) {
    WriteOp op;
    op.type = OpType::kUpdate;
    op.doc = MakeLog(1, 1, 100, i);
    ASSERT_TRUE(client.Enqueue(std::move(op)).ok());
  }
  ASSERT_TRUE(client.Flush().ok());
  EXPECT_EQ(client.applied_ops(), 20u);
  EXPECT_EQ(client.coalesced_ops(), 0u);
}

TEST(WriteClientTest, HotspotIsolationSeparatesQueues) {
  Esdb db(SmallCluster(RoutingKind::kDynamic));
  // Make tenant 9 hot via a committed rule.
  db.dynamic_routing()->UpdateRules([](RuleList* r) { r->Update(0, 8, 9); });
  WriteClient::Options wopts;
  wopts.batch_size = 1000;
  WriteClient client(&db, wopts);
  WriteOp hot;
  hot.type = OpType::kInsert;
  hot.doc = MakeLog(9, 1, 100);
  WriteOp cold;
  cold.type = OpType::kInsert;
  cold.doc = MakeLog(2, 2, 100);
  ASSERT_TRUE(client.Enqueue(hot).ok());
  ASSERT_TRUE(client.Enqueue(cold).ok());
  EXPECT_EQ(client.pending(WriteClient::QueueKind::kHot), 1u);
  EXPECT_EQ(client.pending(WriteClient::QueueKind::kNormal), 1u);
  // The normal queue can drain while the hot queue stays blocked.
  ASSERT_TRUE(client.FlushQueue(WriteClient::QueueKind::kNormal).ok());
  EXPECT_EQ(client.pending(WriteClient::QueueKind::kNormal), 0u);
  EXPECT_EQ(client.pending(WriteClient::QueueKind::kHot), 1u);
  ASSERT_TRUE(client.FlushQueue(WriteClient::QueueKind::kHot).ok());
  EXPECT_EQ(client.applied_ops(), 2u);
}

TEST(WriteClientTest, AutoFlushAtBatchSize) {
  Esdb db(SmallCluster(RoutingKind::kDynamic));
  WriteClient::Options wopts;
  wopts.batch_size = 5;
  WriteClient client(&db, wopts);
  for (int64_t i = 0; i < 5; ++i) {
    WriteOp op;
    op.type = OpType::kInsert;
    op.doc = MakeLog(1, i, 100);
    ASSERT_TRUE(client.Enqueue(std::move(op)).ok());
  }
  EXPECT_EQ(client.pending(WriteClient::QueueKind::kNormal), 0u);
  EXPECT_EQ(client.applied_ops(), 5u);
}

// Shard heat feeds only node-placed migration decisions: a node-less
// cluster records none of it on the write path.
TEST(EsdbTest, NodelessClusterRecordsNoHeat) {
  Esdb db(SmallCluster(RoutingKind::kHash));
  for (int64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(db.Insert(MakeLog(1 + i % 4, i, i)).ok());
  }
  for (uint32_t s = 0; s < db.num_shards(); ++s) {
    EXPECT_EQ(db.heat()->Score(ShardId(s)), 0.0) << "shard " << s;
  }
}

// Cross-policy equivalence: all three routing policies return the
// same query results for the same data (placement differs, contents
// don't).
TEST(EsdbIntegration, PoliciesAgreeOnQueryResults) {
  Rng rng(123);
  std::vector<Document> docs;
  for (int64_t i = 0; i < 300; ++i) {
    docs.push_back(MakeLog(1 + int64_t(rng.Uniform(10)), i,
                           int64_t(rng.Uniform(1000)),
                           int64_t(rng.Uniform(4))));
  }
  auto run = [&](RoutingKind kind) {
    Esdb db(SmallCluster(kind));
    for (const Document& doc : docs) EXPECT_TRUE(db.Insert(doc).ok());
    db.RefreshAll();
    auto result = db.ExecuteSql(
        "SELECT * FROM t WHERE tenant_id = 4 AND status = 2 "
        "ORDER BY record_id LIMIT 50");
    EXPECT_TRUE(result.ok());
    std::vector<int64_t> records;
    for (const Document& row : result->rows) {
      records.push_back(row.record_id());
    }
    return records;
  };
  const auto hash_result = run(RoutingKind::kHash);
  EXPECT_EQ(run(RoutingKind::kDoubleHash), hash_result);
  EXPECT_EQ(run(RoutingKind::kDynamic), hash_result);
  EXPECT_FALSE(hash_result.empty());
}

}  // namespace
}  // namespace esdb
