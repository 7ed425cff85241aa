#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

#include "cluster/esdb.h"
#include "common/random.h"

namespace esdb {
namespace {

Esdb::Options SmallCluster() {
  Esdb::Options options;
  options.num_shards = 16;
  options.routing = RoutingKind::kDynamic;
  options.store.refresh_doc_count = 0;
  options.with_replicas = true;
  return options;
}

Document MakeLog(int64_t tenant, int64_t record, int64_t time,
                 int64_t status = 0) {
  Document doc;
  doc.Set(kFieldTenantId, Value(tenant));
  doc.Set(kFieldRecordId, Value(record));
  doc.Set(kFieldCreatedTime, Value(time));
  doc.Set("status", Value(status));
  return doc;
}

class DistributedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Esdb>(SmallCluster());
    for (NodeId node = 1; node <= 4; ++node) {
      ASSERT_TRUE(db_->AddNode(node).ok());
    }
    for (int64_t i = 0; i < 200; ++i) {
      ASSERT_TRUE(db_->Insert(MakeLog(1 + i % 5, i, i, i % 3)).ok());
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

TEST(DistributedBasics, NotReadyWithoutTwoNodes) {
  Esdb db(SmallCluster());
  ASSERT_TRUE(db.AddNode(1).ok());
  EXPECT_FALSE(db.Insert(MakeLog(1, 1, 1)).ok());
  ASSERT_TRUE(db.AddNode(2).ok());
  EXPECT_TRUE(db.Insert(MakeLog(1, 1, 1)).ok());
  EXPECT_TRUE(db.ready());
}

TEST(DistributedBasics, NoNodeEsdbAcceptsWorkAtOnce) {
  Esdb db(SmallCluster());
  EXPECT_EQ(db.num_nodes(), 0u);
  EXPECT_FALSE(db.ready());
  EXPECT_EQ(db.PrimaryNodeOf(0), 0u);
  ASSERT_TRUE(db.Insert(MakeLog(1, 1, 1)).ok());
  db.RefreshAll();
  auto count = db.ExecuteSql("SELECT COUNT(*) FROM t WHERE tenant_id = 1");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count->agg_count, 1u);
  // Without nodes there is nothing to fail over or migrate to.
  EXPECT_EQ(db.FailNode(1).code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(db.StartMigration(0, 1).ok());
  EXPECT_EQ(db.MaybeMigrate(), 0u);
}

TEST(DistributedBasics, AddNodeNeedsReplicas) {
  Esdb::Options options = SmallCluster();
  options.with_replicas = false;
  Esdb db(options);
  EXPECT_EQ(db.AddNode(1).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(db.num_nodes(), 0u);
  EXPECT_TRUE(db.Insert(MakeLog(1, 1, 1)).ok());
}

TEST_F(DistributedTest, QueriesWork) {
  EXPECT_EQ(db_->TotalDocs(), 200u);
  EXPECT_EQ(Count("tenant_id = 1"), 40u);
  EXPECT_EQ(Count("status = 0"), 67u);
}

TEST_F(DistributedTest, SetMaintenanceThreadsKeepsResultsIdentical) {
  // Flip the refresh/replication fan-out between serial and pooled
  // mid-stream; every configuration must refresh the same state.
  EXPECT_EQ(db_->maintenance_threads(), 0u);
  const uint64_t baseline = Count("status = 0");
  for (uint32_t threads : {4u, 0u, 2u}) {
    db_->SetMaintenanceThreads(threads);
    EXPECT_EQ(db_->maintenance_threads(), threads);
    for (int64_t i = 0; i < 50; ++i) {
      ASSERT_TRUE(
          db_->Insert(MakeLog(1 + i % 5, 1000 + i, 1000 + i, 1)).ok());
    }
    db_->RefreshAll();
    EXPECT_EQ(Count("status = 0"), baseline);
    EXPECT_EQ(Count("record_id >= 1000"), 50u);
    // Delete the batch so each loop iteration starts from the same
    // corpus regardless of the pool size that refreshed it.
    for (int64_t i = 0; i < 50; ++i) {
      WriteOp op;
      op.type = OpType::kDelete;
      op.doc = MakeLog(1 + i % 5, 1000 + i, 1000 + i, 1);
      ASSERT_TRUE(db_->Apply(op).ok());
    }
    db_->RefreshAll();
    EXPECT_EQ(Count("record_id >= 1000"), 0u);
  }
  EXPECT_EQ(db_->TotalDocs(), 200u);
}

TEST_F(DistributedTest, PrimaryNodeFailureLosesNothing) {
  // Fail each node once (re-adding in between): all 200 docs survive
  // every single-node failure.
  for (NodeId victim = 1; victim <= 4; ++victim) {
    ASSERT_TRUE(db_->FailNode(victim).ok()) << "victim " << victim;
    EXPECT_EQ(Count("tenant_id IN (1, 2, 3, 4, 5)"), 200u)
        << "after failing node " << victim;
    ASSERT_TRUE(db_->AddNode(victim + 100).ok());
    db_->RefreshAll();
  }
  EXPECT_GT(db_->failovers(), 0u);
}

TEST_F(DistributedTest, FailureWithUnrefreshedWritesKeepsThem) {
  // Writes sitting only in buffers + translogs at failure time.
  for (int64_t i = 200; i < 230; ++i) {
    ASSERT_TRUE(db_->Insert(MakeLog(2, i, i)).ok());
  }
  // Do NOT refresh: translog sync is the only replica copy.
  ASSERT_TRUE(db_->FailNode(1).ok());
  db_->RefreshAll();
  EXPECT_EQ(db_->TotalDocs(), 230u);
  EXPECT_EQ(Count("tenant_id = 2"), 70u);
}

TEST_F(DistributedTest, ReplicasRebuiltAfterFailure) {
  ASSERT_TRUE(db_->FailNode(2).ok());
  EXPECT_GT(db_->replicas_rebuilt(), 0u);
  // Every shard's replica converged back to its primary.
  db_->RefreshAll();
  for (uint32_t shard = 0; shard < 16; ++shard) {
    EXPECT_NE(db_->PrimaryNodeOf(shard), 2u);
    EXPECT_NE(db_->ReplicaNodeOf(shard), 2u);
  }
}

TEST_F(DistributedTest, DoubleFailureSequence) {
  ASSERT_TRUE(db_->FailNode(1).ok());
  ASSERT_TRUE(db_->FailNode(3).ok());
  EXPECT_EQ(db_->num_nodes(), 2u);
  EXPECT_EQ(Count("tenant_id IN (1, 2, 3, 4, 5)"), 200u);
  // A third failure would leave one node: refused.
  EXPECT_FALSE(db_->FailNode(2).ok());
}

TEST_F(DistributedTest, NodeJoinRebalances) {
  const auto before = db_->DocsByNode();
  ASSERT_TRUE(db_->AddNode(9).ok());
  db_->RefreshAll();
  const auto after = db_->DocsByNode();
  EXPECT_EQ(after.size(), before.size() + 1);
  EXPECT_GT(after.at(9), 0u);  // the newcomer now serves primaries
  EXPECT_EQ(Count("tenant_id IN (1, 2, 3, 4, 5)"), 200u);
}

TEST_F(DistributedTest, GracefulRemoveKeepsData) {
  ASSERT_TRUE(db_->RemoveNode(4).ok());
  EXPECT_EQ(Count("tenant_id IN (1, 2, 3, 4, 5)"), 200u);
  for (uint32_t shard = 0; shard < 16; ++shard) {
    EXPECT_NE(db_->PrimaryNodeOf(shard), 4u);
    EXPECT_NE(db_->ReplicaNodeOf(shard), 4u);
  }
}

TEST_F(DistributedTest, RebalanceDuringFailures) {
  // Dynamic secondary hashing rules + failures interleaved: the
  // read-your-writes invariant must survive both.
  db_->dynamic_routing()->UpdateRules([](RuleList* r) { r->Update(1000, 8, 1); });
  for (int64_t i = 300; i < 380; ++i) {
    ASSERT_TRUE(db_->Insert(MakeLog(1, i, 1000 + i)).ok());
  }
  db_->RefreshAll();
  ASSERT_TRUE(db_->FailNode(2).ok());
  EXPECT_EQ(Count("tenant_id = 1"), 120u);  // 40 old + 80 new
  // Updates still find pre-rule records on their original shards.
  WriteOp op;
  op.type = OpType::kUpdate;
  op.doc = MakeLog(1, 0, 0, 77);
  ASSERT_TRUE(db_->Apply(op).ok());
  db_->RefreshAll();
  EXPECT_EQ(Count("tenant_id = 1 AND status = 77"), 1u);
  EXPECT_EQ(Count("tenant_id = 1"), 120u);  // replaced, not duplicated
}

// The paper's loop on a 4-node cluster: the hot tenant's share of
// writes grows window by window, and RunBalanceCycle alone (no rule
// injected by hand) raises its secondary-hashing offset from 1 to 8.
// A second writer keeps writing while each cycle commits its rule and
// while a migration of the hot tenant's first shard copies and cuts
// over. After every step, COUNT(*) equals the acknowledged writes.
TEST(DistributedBalancing, BalanceCyclesSplitHotTenantAcrossCutover) {
  constexpr int64_t kHot = 1;
  Esdb::Options options = SmallCluster();
  options.balancer.target_share_per_shard = 0.1;
  options.balancer.max_offset = 8;
  Esdb db(options);
  for (NodeId node = 1; node <= 4; ++node) ASSERT_TRUE(db.AddNode(node).ok());

  // Record ids double as creation times, so every write after a
  // cycle's effective time routes by the rule it committed.
  std::atomic<int64_t> next{0};
  std::atomic<uint64_t> hot_acked{0}, all_acked{0};
  // Writes n docs, every 20 of them `hot_in_20` for the hot tenant and
  // the rest spread over 20 cold tenants.
  const auto write = [&](int n, int hot_in_20) {
    for (int i = 0; i < n; ++i) {
      const int64_t id = next.fetch_add(1);
      const bool hot = i % 20 < hot_in_20;
      const int64_t tenant = hot ? kHot : 2 + id % 20;
      if (!db.Insert(MakeLog(tenant, id, id)).ok()) return;
      if (hot) ++hot_acked;
      ++all_acked;
    }
  };
  const auto expect_counts = [&](const std::string& step) {
    db.RefreshAll();
    auto hot = db.ExecuteSql("SELECT COUNT(*) FROM t WHERE tenant_id = 1");
    auto all = db.ExecuteSql("SELECT COUNT(*) FROM t");
    ASSERT_TRUE(hot.ok() && all.ok()) << step;
    EXPECT_EQ(hot->agg_count, hot_acked.load()) << step;
    EXPECT_EQ(all->agg_count, all_acked.load()) << step;
  };
  const auto max_offset = [&] {
    return db.dynamic_routing()->PinRules()->MaxOffset(kHot);
  };

  // Hot shares 0.15, 0.30, 0.70: offsets 2, 4, 8 at a 0.1 target.
  const int hot_in_20[] = {3, 6, 14};
  const uint32_t expected_offset[] = {2, 4, 8};
  EXPECT_EQ(max_offset(), 1u);
  for (int window = 0; window < 3; ++window) {
    const std::string step = "window " + std::to_string(window);
    write(400, hot_in_20[window]);
    std::thread in_flight(write, 40, hot_in_20[window]);
    const size_t committed = db.RunBalanceCycle(next.load() + 1);
    in_flight.join();
    EXPECT_EQ(committed, 1u) << step;
    EXPECT_EQ(max_offset(), expected_offset[window]) << step;
    expect_counts(step);
    if (HasFatalFailure()) return;

    if (window != 1) continue;
    // Offset 4: migrate the hot tenant's first shard with writes in
    // flight through the copy and the cutover.
    const ShardId shard = db.routing().RouteRead(kHot).front();
    const NodeId to = db.PrimaryNodeOf(shard) == 1 ? 2 : 1;
    ASSERT_TRUE(db.StartMigration(shard, to).ok());
    std::thread copying(write, 40, hot_in_20[window]);
    ASSERT_TRUE(db.migrator()->Drive(shard).ok());
    copying.join();
    expect_counts("copying");
    std::thread cutover(write, 40, hot_in_20[window]);
    EXPECT_EQ(db.DriveMigrations(), 1u);
    cutover.join();
    EXPECT_EQ(db.MigrationPhaseOf(shard), MigrationPhase::kDone);
    EXPECT_EQ(db.PrimaryNodeOf(shard), to);
    expect_counts("after cutover");
    if (HasFatalFailure()) return;
  }
  EXPECT_GE(max_offset(), 4u);
}

// Property: a random storm of writes, refreshes, failures and joins
// never loses an acknowledged, refreshed write.
TEST(DistributedProperty, ChurnNeverLosesRefreshedWrites) {
  Rng rng(2024);
  Esdb db(SmallCluster());
  NodeId next_node = 1;
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(db.AddNode(next_node++).ok());

  int64_t next_record = 0;
  int64_t acknowledged = 0;
  for (int step = 0; step < 30; ++step) {
    const int writes = 10 + int(rng.Uniform(20));
    for (int w = 0; w < writes; ++w) {
      ASSERT_TRUE(
          db.Insert(MakeLog(1 + int64_t(rng.Uniform(6)), next_record,
                            next_record))
              .ok());
      ++next_record;
    }
    acknowledged = next_record;
    db.RefreshAll();
    if (rng.Bernoulli(0.3) && db.num_nodes() > 3) {
      // Fail a random node.
      const auto docs_by_node = db.DocsByNode();
      auto it = docs_by_node.begin();
      std::advance(it, long(rng.Uniform(docs_by_node.size())));
      ASSERT_TRUE(db.FailNode(it->first).ok());
    } else if (rng.Bernoulli(0.4)) {
      ASSERT_TRUE(db.AddNode(100 + next_node++).ok());
    }
    auto count = db.ExecuteSql("SELECT COUNT(*) FROM t");
    ASSERT_TRUE(count.ok());
    ASSERT_EQ(int64_t(count->agg_count), acknowledged)
        << "step " << step;
  }
}

}  // namespace
}  // namespace esdb
