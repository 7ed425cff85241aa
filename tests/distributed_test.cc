#include <gtest/gtest.h>

#include "cluster/distributed.h"
#include "common/random.h"

namespace esdb {
namespace {

DistributedEsdb::Options SmallCluster() {
  DistributedEsdb::Options options;
  options.num_shards = 16;
  options.routing = RoutingKind::kDynamic;
  options.store.refresh_doc_count = 0;
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
    db_ = std::make_unique<DistributedEsdb>(SmallCluster());
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

  std::unique_ptr<DistributedEsdb> db_;
};

TEST(DistributedBasics, NotReadyWithoutTwoNodes) {
  DistributedEsdb db(SmallCluster());
  EXPECT_FALSE(db.Insert(MakeLog(1, 1, 1)).ok());
  ASSERT_TRUE(db.AddNode(1).ok());
  EXPECT_FALSE(db.Insert(MakeLog(1, 1, 1)).ok());
  ASSERT_TRUE(db.AddNode(2).ok());
  EXPECT_TRUE(db.Insert(MakeLog(1, 1, 1)).ok());
  EXPECT_TRUE(db.ready());
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

// Property: a random storm of writes, refreshes, failures and joins
// never loses an acknowledged, refreshed write.
TEST(DistributedProperty, ChurnNeverLosesRefreshedWrites) {
  Rng rng(2024);
  DistributedEsdb db(SmallCluster());
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
