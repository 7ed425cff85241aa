#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "common/random.h"
#include "cluster/cluster_persistence.h"
#include "storage/persistence.h"

namespace esdb {
namespace {

namespace fs = std::filesystem;

IndexSpec TestSpec() {
  IndexSpec spec;
  spec.composite_indexes = {{"tenant_id", "created_time"}};
  spec.text_fields = {"title"};
  return spec;
}

WriteOp Insert(int64_t record, int64_t time, int64_t status = 0) {
  WriteOp op;
  op.type = OpType::kInsert;
  op.doc.Set(kFieldTenantId, Value(int64_t(1)));
  op.doc.Set(kFieldRecordId, Value(record));
  op.doc.Set(kFieldCreatedTime, Value(time));
  op.doc.Set("status", Value(status));
  op.doc.Set("title", Value(std::string("classic novel")));
  return op;
}

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("esdb_test_" + std::to_string(::testing::UnitTest::GetInstance()
                                              ->random_seed()) +
            "_" + std::to_string(counter_++));
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  ShardStore::Options Manual() {
    ShardStore::Options options;
    options.refresh_doc_count = 0;
    return options;
  }

  fs::path dir_;
  static int counter_;
};

int PersistenceTest::counter_ = 0;

TEST_F(PersistenceTest, SaveOpenRoundTrip) {
  IndexSpec spec = TestSpec();
  ShardStore store(&spec, Manual());
  for (int64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(store.Apply(Insert(i, i, i % 3)).ok());
  }
  store.Refresh();
  // Some un-refreshed ops live only in the translog tail.
  for (int64_t i = 50; i < 60; ++i) {
    ASSERT_TRUE(store.Apply(Insert(i, i)).ok());
  }

  ASSERT_TRUE(SaveShard(store, dir_.string()).ok());
  auto opened = OpenShard(&spec, Manual(), dir_.string());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  (*opened)->Refresh();

  EXPECT_EQ((*opened)->num_live_docs(), 60u);
  for (int64_t i = 0; i < 60; ++i) {
    auto original = i < 50 ? store.GetByRecordId(i) : Result<Document>(
        Status::NotFound("buffered"));
    auto recovered = (*opened)->GetByRecordId(i);
    ASSERT_TRUE(recovered.ok()) << i;
    if (original.ok()) {
      EXPECT_EQ(*original, *recovered);
    }
  }
  // Full-text index survived the segment files.
  const SegmentSnapshot snapshot = (*opened)->Snapshot();
  ASSERT_FALSE(snapshot->empty());
  EXPECT_FALSE((*snapshot)[0]->Postings("title", "novel").empty());
}

// Round trip exactly at the refreshed_seq_ truncation boundary: ops
// below the watermark live only in segments (Flush dropped their log
// entries), ops at/above it live only in the translog tail. Recovery
// must splice the two without losing or double-applying either side.
TEST_F(PersistenceTest, FlushThenRecoverAtTruncationBoundary) {
  IndexSpec spec = TestSpec();
  ShardStore store(&spec, Manual());
  for (int64_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(store.Apply(Insert(i, i, i % 3)).ok());
  }
  store.Refresh();
  // Tail ops past the watermark: a fresh insert, an upsert of a
  // refreshed record, and a delete of a refreshed record.
  ASSERT_TRUE(store.Apply(Insert(100, 100)).ok());
  ASSERT_TRUE(store.Apply(Insert(5, 5, /*status=*/99)).ok());
  WriteOp del;
  del.type = OpType::kDelete;
  del.doc.Set(kFieldTenantId, Value(int64_t(1)));
  del.doc.Set(kFieldRecordId, Value(int64_t(7)));
  del.doc.Set(kFieldCreatedTime, Value(int64_t(7)));
  ASSERT_TRUE(store.Apply(del).ok());
  store.Flush();  // drops everything below refreshed_seq_
  EXPECT_EQ(store.translog().num_entries(), 3u);

  ASSERT_TRUE(SaveShard(store, dir_.string()).ok());
  auto opened = OpenShard(&spec, Manual(), dir_.string());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  // Exactly the three tail ops replayed: two buffered upserts (the
  // delete tombstones a segment doc instead of buffering).
  EXPECT_EQ((*opened)->translog().num_entries(), 3u);
  EXPECT_EQ((*opened)->buffered_docs(), 2u);
  (*opened)->Refresh();
  store.Refresh();

  EXPECT_EQ((*opened)->num_live_docs(), store.num_live_docs());
  EXPECT_EQ((*opened)->num_live_docs(), 30u);  // 30 + 1 insert - 1 delete
  EXPECT_FALSE((*opened)->GetByRecordId(7).ok());
  auto upserted = (*opened)->GetByRecordId(5);
  ASSERT_TRUE(upserted.ok());
  EXPECT_EQ(upserted->Get("status").as_int(), 99);
  ASSERT_TRUE((*opened)->GetByRecordId(100).ok());
  for (int64_t i = 0; i < 30; ++i) {
    if (i == 7) continue;
    auto a = store.GetByRecordId(i);
    auto b = (*opened)->GetByRecordId(i);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b) << "record " << i;
  }
}

TEST_F(PersistenceTest, TombstonesSurvive) {
  IndexSpec spec = TestSpec();
  ShardStore store(&spec, Manual());
  for (int64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(store.Apply(Insert(i, i)).ok());
  }
  store.Refresh();
  WriteOp del;
  del.type = OpType::kDelete;
  del.doc.Set(kFieldTenantId, Value(int64_t(1)));
  del.doc.Set(kFieldRecordId, Value(int64_t(7)));
  del.doc.Set(kFieldCreatedTime, Value(int64_t(7)));
  ASSERT_TRUE(store.Apply(del).ok());

  ASSERT_TRUE(SaveShard(store, dir_.string()).ok());
  auto opened = OpenShard(&spec, Manual(), dir_.string());
  ASSERT_TRUE(opened.ok());
  (*opened)->Refresh();
  EXPECT_FALSE((*opened)->GetByRecordId(7).ok());
  EXPECT_EQ((*opened)->num_live_docs(), 19u);
}

TEST_F(PersistenceTest, SaveIsIdempotentAndOverwrites) {
  IndexSpec spec = TestSpec();
  ShardStore store(&spec, Manual());
  ASSERT_TRUE(store.Apply(Insert(1, 1)).ok());
  store.Refresh();
  ASSERT_TRUE(SaveShard(store, dir_.string()).ok());
  // Mutate and save again to the same directory.
  ASSERT_TRUE(store.Apply(Insert(2, 2)).ok());
  store.Refresh();
  ASSERT_TRUE(SaveShard(store, dir_.string()).ok());
  auto opened = OpenShard(&spec, Manual(), dir_.string());
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ((*opened)->num_live_docs(), 2u);
}

TEST_F(PersistenceTest, OpenMissingDirectoryFails) {
  IndexSpec spec = TestSpec();
  auto opened = OpenShard(&spec, Manual(), (dir_ / "nope").string());
  EXPECT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kNotFound);
}

TEST_F(PersistenceTest, CorruptManifestRejected) {
  IndexSpec spec = TestSpec();
  ShardStore store(&spec, Manual());
  ASSERT_TRUE(store.Apply(Insert(1, 1)).ok());
  store.Refresh();
  ASSERT_TRUE(SaveShard(store, dir_.string()).ok());
  // Clobber the manifest.
  {
    std::FILE* f = std::fopen((dir_ / "MANIFEST").string().c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("garbage", f);
    std::fclose(f);
  }
  auto opened = OpenShard(&spec, Manual(), dir_.string());
  EXPECT_FALSE(opened.ok());
}

TEST_F(PersistenceTest, MissingSegmentFileRejected) {
  IndexSpec spec = TestSpec();
  ShardStore store(&spec, Manual());
  ASSERT_TRUE(store.Apply(Insert(1, 1)).ok());
  store.Refresh();
  ASSERT_TRUE(SaveShard(store, dir_.string()).ok());
  // Remove the segment file the manifest references.
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().extension() == ".seg") fs::remove(entry.path());
  }
  EXPECT_FALSE(OpenShard(&spec, Manual(), dir_.string()).ok());
}

// Property: random op sequence -> save -> open equals the original.
TEST_F(PersistenceTest, RandomRoundTripProperty) {
  IndexSpec spec = TestSpec();
  Rng rng(77);
  ShardStore store(&spec, Manual());
  for (int i = 0; i < 200; ++i) {
    const int64_t record = int64_t(rng.Uniform(40));
    if (rng.Bernoulli(0.2)) {
      WriteOp del;
      del.type = OpType::kDelete;
      del.doc.Set(kFieldTenantId, Value(int64_t(1)));
      del.doc.Set(kFieldRecordId, Value(record));
      del.doc.Set(kFieldCreatedTime, Value(int64_t(i)));
      ASSERT_TRUE(store.Apply(del).ok());
    } else {
      ASSERT_TRUE(store.Apply(Insert(record, i, i)).ok());
    }
    if (rng.Bernoulli(0.1)) {
      store.Refresh();
      store.MaybeMerge();
    }
    if (rng.Bernoulli(0.05)) store.Flush();
  }

  ASSERT_TRUE(SaveShard(store, dir_.string()).ok());
  auto opened = OpenShard(&spec, Manual(), dir_.string());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  store.Refresh();
  (*opened)->Refresh();
  EXPECT_EQ((*opened)->num_live_docs(), store.num_live_docs());
  for (int64_t record = 0; record < 40; ++record) {
    auto a = store.GetByRecordId(record);
    auto b = (*opened)->GetByRecordId(record);
    ASSERT_EQ(a.ok(), b.ok()) << record;
    if (a.ok()) {
      EXPECT_EQ(*a, *b);
    }
  }
}


class ClusterPersistenceTest : public PersistenceTest {};

TEST_F(ClusterPersistenceTest, SaveOpenRoundTripWithRules) {
  Esdb::Options options;
  options.num_shards = 8;
  options.routing = RoutingKind::kDynamic;
  options.store.refresh_doc_count = 0;
  Esdb db(options);
  // Rule-split tenant 5, then write under both regimes.
  db.dynamic_routing()->UpdateRules([](RuleList* r) { r->Update(100, 4, 5); });
  for (int64_t i = 0; i < 120; ++i) {
    Document doc;
    doc.Set(kFieldTenantId, Value(int64_t(i % 2 == 0 ? 5 : 1 + i % 4)));
    doc.Set(kFieldRecordId, Value(i));
    doc.Set(kFieldCreatedTime, Value(i * 3));  // spans the rule boundary
    doc.Set("status", Value(int64_t(i % 3)));
    ASSERT_TRUE(db.Insert(std::move(doc)).ok());
  }
  db.RefreshAll();
  for (int64_t i = 120; i < 130; ++i) {  // leave some in buffers
    Document doc;
    doc.Set(kFieldTenantId, Value(int64_t(5)));
    doc.Set(kFieldRecordId, Value(i));
    doc.Set(kFieldCreatedTime, Value(i * 3));
    ASSERT_TRUE(db.Insert(std::move(doc)).ok());
  }

  ASSERT_TRUE(SaveCluster(db, dir_.string()).ok());
  Esdb::Options reopened_options;
  reopened_options.num_shards = 8;
  reopened_options.routing = RoutingKind::kDynamic;
  reopened_options.store.refresh_doc_count = 0;
  auto reopened = OpenCluster(reopened_options, dir_.string());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  (*reopened)->RefreshAll();

  EXPECT_EQ((*reopened)->TotalDocs(), 130u);
  // Rules survived: the tenant's read fan-out matches.
  EXPECT_EQ((*reopened)->dynamic_routing()->rules().MaxOffset(5), 4u);
  auto count = (*reopened)->ExecuteSql(
      "SELECT COUNT(*) FROM t WHERE tenant_id = 5");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->agg_count, 70u);
  // Updates of pre-rule records still find their original shard.
  WriteOp op;
  op.type = OpType::kUpdate;
  op.doc.Set(kFieldTenantId, Value(int64_t(5)));
  op.doc.Set(kFieldRecordId, Value(int64_t(0)));
  op.doc.Set(kFieldCreatedTime, Value(int64_t(0)));
  op.doc.Set("status", Value(int64_t(42)));
  ASSERT_TRUE((*reopened)->Apply(op).ok());
  (*reopened)->RefreshAll();
  count = (*reopened)->ExecuteSql("SELECT COUNT(*) FROM t WHERE tenant_id = 5");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->agg_count, 70u);  // replaced, not duplicated
}

TEST_F(ClusterPersistenceTest, ShardCountMismatchRejected) {
  Esdb::Options options;
  options.num_shards = 4;
  options.store.refresh_doc_count = 0;
  Esdb db(options);
  ASSERT_TRUE(SaveCluster(db, dir_.string()).ok());
  Esdb::Options wrong;
  wrong.num_shards = 8;
  EXPECT_FALSE(OpenCluster(wrong, dir_.string()).ok());
}

TEST_F(ClusterPersistenceTest, MissingDirectoryRejected) {
  Esdb::Options options;
  options.num_shards = 4;
  EXPECT_FALSE(OpenCluster(options, (dir_ / "absent").string()).ok());
}

TEST_F(ClusterPersistenceTest, ReplicaClustersRefused) {
  Esdb::Options options;
  options.num_shards = 4;
  options.with_replicas = true;
  EXPECT_FALSE(OpenCluster(options, dir_.string()).ok());
}

}  // namespace
}  // namespace esdb
