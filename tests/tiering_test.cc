#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "balancer/monitor.h"
#include "cluster/esdb.h"
#include "common/failpoint.h"
#include "common/random.h"
#include "storage/block_cache.h"
#include "storage/codec.h"
#include "storage/cold_segment.h"
#include "storage/persistence.h"
#include "storage/shard_store.h"

namespace esdb {
namespace {

namespace fs = std::filesystem;

IndexSpec TestSpec() {
  IndexSpec spec;
  spec.composite_indexes = {{"tenant_id", "created_time"}};
  spec.text_fields = {"title"};
  return spec;
}

WriteOp Insert(int64_t tenant, int64_t record, int64_t time,
               int64_t status = 0) {
  WriteOp op;
  op.type = OpType::kInsert;
  op.doc.Set(kFieldTenantId, Value(tenant));
  op.doc.Set(kFieldRecordId, Value(record));
  op.doc.Set(kFieldCreatedTime, Value(time));
  op.doc.Set("status", Value(status));
  op.doc.Set("title", Value(std::string("order record number ") +
                            std::to_string(record)));
  return op;
}

WriteOp Delete(int64_t tenant, int64_t record, int64_t time) {
  WriteOp op;
  op.type = OpType::kDelete;
  op.doc.Set(kFieldTenantId, Value(tenant));
  op.doc.Set(kFieldRecordId, Value(record));
  op.doc.Set(kFieldCreatedTime, Value(time));
  return op;
}

class TieringTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("esdb_tier_" + std::to_string(::testing::UnitTest::GetInstance()
                                              ->random_seed()) +
            "_" + std::to_string(counter_++));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  // Manual refresh, merge after 2 segments so tier transitions are
  // easy to trigger, tiering enabled with a spill dir.
  ShardStore::Options TierOptions(std::shared_ptr<BlockCache> cache,
                                  bool spill = true) {
    ShardStore::Options options;
    options.refresh_doc_count = 0;
    options.merge.max_segments = 2;
    options.tier.enabled = true;
    options.tier.spill_dir = spill ? dir_.string() : "";
    options.tier.cache = std::move(cache);
    return options;
  }

  fs::path dir_;
  static int counter_;
};

int TieringTest::counter_ = 0;

// --- Codec ------------------------------------------------------------

TEST(CodecTest, RoundTripBasics) {
  for (const std::string& input :
       {std::string(""), std::string("a"), std::string("abcd"),
        std::string(1000, 'x'),
        std::string("the quick brown fox jumps over the lazy dog "
                    "the quick brown fox jumps over the lazy dog")}) {
    const std::string comp = CompressBlock(input);
    auto back = DecompressBlock(comp, input.size());
    ASSERT_TRUE(back.ok()) << input.size();
    EXPECT_EQ(*back, input);
  }
}

TEST(CodecTest, RepetitiveInputCompresses) {
  std::string input;
  for (int i = 0; i < 500; ++i) {
    input += "tenant_id=42 status=SHIPPED created_time=1690000000;";
  }
  const std::string comp = CompressBlock(input);
  EXPECT_LT(comp.size(), input.size() / 3);
  auto back = DecompressBlock(comp, input.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, input);
}

TEST(CodecTest, IncompressibleRandomRoundTrips) {
  Rng rng(7);
  std::string input;
  input.reserve(64 << 10);
  for (int i = 0; i < (64 << 10); ++i) {
    input.push_back(char(rng.Next() & 0xff));
  }
  const std::string comp = CompressBlock(input);
  // Worst-case expansion stays small.
  EXPECT_LT(comp.size(), input.size() + input.size() / 1024 + 64);
  auto back = DecompressBlock(comp, input.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, input);
}

TEST(CodecTest, CorruptionIsAnErrorNeverACrash) {
  const std::string input(4096, 'z');
  const std::string comp = CompressBlock(input);
  // Wrong raw size (both directions).
  EXPECT_FALSE(DecompressBlock(comp, input.size() + 1).ok());
  EXPECT_FALSE(DecompressBlock(comp, input.size() - 1).ok());
  // Truncated stream.
  EXPECT_FALSE(
      DecompressBlock(std::string_view(comp).substr(0, comp.size() / 2),
                      input.size())
          .ok());
  // Bit flips anywhere must yield OK-with-same-size or Corruption,
  // never UB; exercise a sweep of positions.
  for (size_t i = 0; i < comp.size(); i += 3) {
    std::string bad = comp;
    bad[i] = char(bad[i] ^ 0x5b);
    auto r = DecompressBlock(bad, input.size());
    if (r.ok()) {
      EXPECT_EQ(r->size(), input.size());
    }
  }
  // Garbage.
  EXPECT_FALSE(DecompressBlock("\xff\xff\xff\xff\xff", 100).ok());
}

// --- ColdSegment ------------------------------------------------------

std::unique_ptr<Segment> BuildSegment(const IndexSpec& spec, int n,
                                      uint64_t id = 1) {
  SegmentBuilder builder(&spec);
  for (int i = 0; i < n; ++i) {
    const WriteOp op = Insert(i % 7, 1000 + i, 5000 + i, i % 3);
    builder.Add(op.doc);
  }
  return std::move(builder).Build(id);
}

TEST_F(TieringTest, ColdSegmentRamModeRoundTrip) {
  IndexSpec spec = TestSpec();
  auto cache = std::make_shared<BlockCache>();
  const std::unique_ptr<Segment> seg = BuildSegment(spec, 600);
  auto cold = ColdSegment::FromSegment(*seg, "", cache);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE((*cold)->spilled());
  EXPECT_EQ((*cold)->num_docs(), 600u);
  EXPECT_EQ((*cold)->DiskBytes(), 0u);
  EXPECT_LT((*cold)->compressed_bytes(), (*cold)->total_raw_bytes());

  // The pinned index part answers lookups without stored docs.
  auto index = (*cold)->PinIndex();
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->num_docs(), 600u);
  EXPECT_GE((*index)->FindByRecordId(1000 + 123), 0);

  // Late-materialized stored docs: every doc, block boundaries
  // included (256-doc blocks -> docs 255/256 straddle one).
  for (DocId d : {DocId(0), DocId(255), DocId(256), DocId(599)}) {
    auto doc = (*cold)->ReadDocument(d);
    ASSERT_TRUE(doc.ok()) << d;
    EXPECT_EQ(doc->record_id(), 1000 + int64_t(d));
  }
  EXPECT_FALSE((*cold)->ReadDocument(600).ok());

  // Full re-inflation equals the original, byte for byte.
  auto full = (*cold)->LoadFull();
  ASSERT_TRUE(full.ok());
  EXPECT_EQ((*full)->Encode(), seg->Encode());
}

TEST_F(TieringTest, ColdSegmentSpillOpenAndCleanup) {
  IndexSpec spec = TestSpec();
  auto cache = std::make_shared<BlockCache>();
  const std::unique_ptr<Segment> seg = BuildSegment(spec, 300, /*id=*/9);
  const std::string path = (dir_ / "cold-test-9.cold").string();
  std::string file_image;
  {
    auto cold = ColdSegment::FromSegment(*seg, path, cache);
    ASSERT_TRUE(cold.ok());
    EXPECT_TRUE((*cold)->spilled());
    EXPECT_TRUE(fs::exists(path));
    EXPECT_GT((*cold)->DiskBytes(), 0u);
    auto bytes = (*cold)->FileBytes();
    ASSERT_TRUE(bytes.ok());
    file_image = *bytes;
    EXPECT_EQ(file_image.size(), fs::file_size(path));

    // Re-open the same file (recovery path) and read through it.
    auto opened = ColdSegment::Open(path, cache);
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ((*opened)->id(), 9u);
    auto doc = (*opened)->ReadDocument(150);
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(doc->record_id(), 1000 + 150);

    auto full = (*opened)->LoadFull();
    ASSERT_TRUE(full.ok());
    EXPECT_EQ((*full)->Encode(), seg->Encode());
  }
  // FromSegment owns its spill file: dropped with the last handle.
  // (The Open handle never owns.)
  EXPECT_FALSE(fs::exists(path));

  // A truncated file is Corruption on open, not UB.
  const std::string bad_path = (dir_ / "bad.cold").string();
  {
    std::ofstream out(bad_path, std::ios::binary);
    out.write(file_image.data(), long(file_image.size() / 3));
  }
  EXPECT_FALSE(ColdSegment::Open(bad_path, cache).ok());
}

// --- ShardStore tier lifecycle ---------------------------------------

TEST_F(TieringTest, DemoteOnMergeThenQueriesMatchHot) {
  IndexSpec spec = TestSpec();
  auto cache = std::make_shared<BlockCache>();
  ShardStore cold_store(&spec, TierOptions(cache));
  ShardStore hot_store(&spec, TierOptions(nullptr, /*spill=*/false));
  hot_store.SetTierCold(false);

  for (int i = 0; i < 500; ++i) {
    const WriteOp op = Insert(i % 5, i, 1000 + i, i % 4);
    ASSERT_TRUE(cold_store.Apply(op).ok());
    ASSERT_TRUE(hot_store.Apply(op).ok());
    if (i % 100 == 99) {
      cold_store.Refresh();
      hot_store.Refresh();
    }
  }
  cold_store.Refresh();
  hot_store.Refresh();

  // Classify cold and let merges demote: the first round is the
  // ordinary policy merge (its output demotes), follow-up rounds
  // rewrite the remaining tier-mismatched segments.
  cold_store.SetTierCold(true);
  EXPECT_TRUE(cold_store.MaybeMerge());
  while (cold_store.MaybeMerge()) {
  }
  {
    const SegmentSnapshot snap = cold_store.Snapshot();
    ASSERT_FALSE(snap->empty());
    for (const SegmentView& view : *snap) EXPECT_TRUE(view.is_cold());
  }
  EXPECT_EQ(cold_store.num_live_docs(), 500u);
  EXPECT_EQ(hot_store.num_live_docs(), 500u);

  // Point reads against the cold tier return the same documents.
  for (int64_t r : {0, 128, 255, 256, 400, 499}) {
    auto a = cold_store.GetByRecordId(r);
    auto b = hot_store.GetByRecordId(r);
    ASSERT_TRUE(a.ok()) << r;
    ASSERT_TRUE(b.ok()) << r;
    EXPECT_EQ(a->Serialize(), b->Serialize());
  }

  // The cache now holds the promoted blocks; a second read hits.
  const BlockCache::Stats before = cache->stats();
  EXPECT_TRUE(cold_store.GetByRecordId(128).ok());
  EXPECT_GT(cache->stats().hits, before.hits);
}

TEST_F(TieringTest, PromotionRestoresHotSegments) {
  IndexSpec spec = TestSpec();
  auto cache = std::make_shared<BlockCache>();
  ShardStore store(&spec, TierOptions(cache));
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(store.Apply(Insert(1, i, 1000 + i)).ok());
  }
  store.Refresh();
  store.SetTierCold(true);
  ASSERT_TRUE(store.MaybeMerge());
  ASSERT_TRUE((*store.Snapshot())[0].is_cold());

  // Writes keep working against a cold shard (new hot segment), and
  // deletes land in the overlay without touching the cold file.
  ASSERT_TRUE(store.Apply(Delete(1, 7, 1007)).ok());
  ASSERT_TRUE(store.Apply(Insert(1, 500, 9999)).ok());
  store.Refresh();
  EXPECT_EQ(store.num_live_docs(), 200u);  // 200 - 1 + 1
  EXPECT_FALSE(store.GetByRecordId(7).ok());
  EXPECT_TRUE(store.GetByRecordId(500).ok());

  // Reclassify hot: the next merge re-inflates everything.
  store.SetTierCold(false);
  EXPECT_TRUE(store.MaybeMerge());
  {
    const SegmentSnapshot snap = store.Snapshot();
    for (const SegmentView& view : *snap) EXPECT_FALSE(view.is_cold());
  }
  EXPECT_EQ(store.num_live_docs(), 200u);
  EXPECT_FALSE(store.GetByRecordId(7).ok());
  EXPECT_TRUE(store.GetByRecordId(123).ok());
  // Promotion erased the dead cold segments' spill files.
  size_t cold_files = 0;
  for (const auto& e : fs::directory_iterator(dir_)) {
    if (e.path().extension() == ".cold") ++cold_files;
  }
  EXPECT_EQ(cold_files, 0u);
}

// Regression (found by the PR-8 ignored-Status sweep): a failed cold
// read mid-merge must abort the round with the epoch untouched —
// never publish a merged segment missing the unreadable documents.
// Before the fix, RewriteSegmentsLocked skipped any doc whose
// GetDocument failed, so one transient tier/cold-load error during a
// promotion merge silently dropped documents from the shard.
TEST_F(TieringTest, FailedColdReadAbortsMergeWithoutDataLoss) {
  if (!FailPoints::CompiledIn()) GTEST_SKIP() << "fail points compiled out";
  IndexSpec spec = TestSpec();
  auto cache = std::make_shared<BlockCache>();
  ShardStore store(&spec, TierOptions(cache));
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(store.Apply(Insert(1, i, 1000 + i)).ok());
  }
  store.Refresh();
  store.SetTierCold(true);
  ASSERT_TRUE(store.MaybeMerge());
  ASSERT_TRUE((*store.Snapshot())[0].is_cold());

  // Warm the index block so the promotion merge's Pinned() is served
  // from cache and the armed failure lands on a doc-block read.
  ASSERT_TRUE((*store.Snapshot())[0].Pinned().ok());

  store.SetTierCold(false);
  {
    ScopedFailPoint fp(failsite::kColdLoad, FailPoints::Once());
    EXPECT_FALSE(store.MaybeMerge());  // the round aborts...
  }
  EXPECT_EQ(store.num_live_docs(), 200u);  // ...and loses nothing

  // Next round (fault cleared) promotes with every document intact.
  EXPECT_TRUE(store.MaybeMerge());
  EXPECT_EQ(store.num_live_docs(), 200u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(store.GetByRecordId(i).ok()) << "record " << i;
  }
}

// Satellite 3: the breakdown's components are exact and sum to
// total(), and demotion actually moves bytes out of resident.
TEST_F(TieringTest, SizeBreakdownSplitsResidentFromCold) {
  IndexSpec spec = TestSpec();
  auto cache = std::make_shared<BlockCache>();
  ShardStore store(&spec, TierOptions(cache));
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(store.Apply(Insert(2, i, 1000 + i)).ok());
  }
  store.Refresh();

  const ShardSizeBreakdown hot = store.SizeBreakdown();
  EXPECT_GT(hot.resident_bytes, 0u);
  EXPECT_GT(hot.translog_bytes, 0u);
  EXPECT_EQ(hot.cold_bytes, 0u);
  EXPECT_EQ(hot.total(),
            hot.resident_bytes + hot.translog_bytes + hot.cold_bytes);
  EXPECT_EQ(store.ResidentBytes(), hot.resident_bytes + hot.translog_bytes);

  store.SetTierCold(true);
  ASSERT_TRUE(store.MaybeMerge());
  const ShardSizeBreakdown cold = store.SizeBreakdown();
  EXPECT_GT(cold.cold_bytes, 0u);
  // Spilled cold tier: RAM drops to metadata, far below the hot
  // resident footprint.
  EXPECT_LT(cold.resident_bytes, hot.resident_bytes / 4);
  EXPECT_EQ(cold.total(),
            cold.resident_bytes + cold.translog_bytes + cold.cold_bytes);
}

// --- Persistence ------------------------------------------------------

TEST_F(TieringTest, ColdShardCheckpointRoundTrip) {
  IndexSpec spec = TestSpec();
  auto cache = std::make_shared<BlockCache>();
  const fs::path shard_dir = dir_ / "shard";
  ShardStore::Options options = TierOptions(cache);

  ShardStore store(&spec, options);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(store.Apply(Insert(3, i, 1000 + i, i % 2)).ok());
  }
  store.Refresh();
  store.SetTierCold(true);
  ASSERT_TRUE(store.MaybeMerge());
  // Delete AFTER demotion: the overlay must survive the checkpoint
  // via the manifest bitmap (cold files are immutable).
  ASSERT_TRUE(store.Apply(Delete(3, 42, 1042)).ok());
  store.Flush();
  ASSERT_TRUE(SaveShard(store, shard_dir.string()).ok());

  RecoveryReport report;
  auto reopened = OpenShard(&spec, options, shard_dir.string(), &report);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(report.segments_loaded, 1u);
  EXPECT_EQ((*reopened)->num_live_docs(), 299u);
  ASSERT_FALSE((*reopened)->Snapshot()->empty());
  EXPECT_TRUE((*(*reopened)->Snapshot())[0].is_cold());
  EXPECT_FALSE((*reopened)->GetByRecordId(42).ok());
  auto doc = (*reopened)->GetByRecordId(100);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Get("status").as_int(), 0);

  // Save again from the reopened store (cold file copy path) and
  // reopen once more.
  const fs::path dir2 = dir_ / "shard2";
  ASSERT_TRUE(SaveShard(**reopened, dir2.string()).ok());
  auto again = OpenShard(&spec, options, dir2.string());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->num_live_docs(), 299u);
  EXPECT_FALSE((*again)->GetByRecordId(42).ok());
}

// --- TierAdmission ----------------------------------------------------

TEST(TierAdmissionTest, ClassifiesAndDecays) {
  TierAdmission admission(3, TierAdmission::Options{4, 500});
  admission.RecordWrite(0, 100);
  admission.RecordQuery(1);  // 1 < 4: cold
  // Shard 2 never touched: cold.
  std::vector<bool> cold = admission.ClassifyAndDecay();
  EXPECT_EQ(cold, (std::vector<bool>{false, true, true}));
  // Decay halves shard 0 each cycle: 50, 25, 12, 6, 3 -> cold after
  // five quiet cycles.
  for (int i = 0; i < 4; ++i) {
    cold = admission.ClassifyAndDecay();
    EXPECT_FALSE(cold[0]) << i;
  }
  cold = admission.ClassifyAndDecay();
  EXPECT_TRUE(cold[0]);
  // A burst flips it straight back.
  admission.RecordWrite(0, 10);
  EXPECT_FALSE(admission.ClassifyAndDecay()[0]);
}

// --- Esdb control plane ----------------------------------------------

TEST_F(TieringTest, ClusterTieringCycleDemotesIdleShards) {
  Esdb::Options options;
  options.num_shards = 4;
  options.routing = RoutingKind::kHash;
  options.store.refresh_doc_count = 0;
  options.store.merge.max_segments = 2;
  options.tiering.enabled = true;
  options.tiering.spill_dir = dir_.string();
  options.tiering.admission.cold_threshold = 4;
  Esdb db(options);
  ASSERT_NE(db.block_cache(), nullptr);
  ASSERT_NE(db.tier_admission(), nullptr);

  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(db.Insert(Insert(i % 40, i, 1000 + i).doc).ok());
  }
  db.RefreshAll();
  const ShardSizeBreakdown hot = db.SizeBreakdownTotal();
  EXPECT_EQ(hot.cold_bytes, 0u);

  // First cycle: every shard saw writes, all stay hot.
  EXPECT_EQ(db.RunTieringCycle(), 0u);
  // Quiet cycles decay activity to zero: everything goes cold.
  size_t num_cold = 0;
  for (int i = 0; i < 10 && num_cold < options.num_shards; ++i) {
    num_cold = db.RunTieringCycle();
  }
  EXPECT_EQ(num_cold, options.num_shards);
  const ShardSizeBreakdown cold = db.SizeBreakdownTotal();
  EXPECT_GT(cold.cold_bytes, 0u);
  EXPECT_LT(cold.resident_bytes, hot.resident_bytes);

  // Queries against the cold cluster still see every row.
  auto r1 = db.ExecuteSql("SELECT COUNT(*) FROM orders");
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->agg_count, 400u);
  auto rows = db.ExecuteSql(
      "SELECT * FROM orders WHERE tenant_id = 7 ORDER BY created_time");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 10u);

  // A query burst re-heats the queried shards at the next cycle
  // (each broadcast records one activity unit per shard).
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(db.ExecuteSql("SELECT COUNT(*) FROM orders").ok());
  }
  EXPECT_EQ(db.RunTieringCycle(), 0u);
}

}  // namespace
}  // namespace esdb
