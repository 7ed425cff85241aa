#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "cluster/esdb.h"
#include "query/parser.h"

namespace esdb {
namespace {

class ScoringTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Esdb::Options options;
    options.num_shards = 4;
    options.routing = RoutingKind::kHash;
    options.store.refresh_doc_count = 0;
    db_ = std::make_unique<Esdb>(std::move(options));
    // Same tenant so everything lands on one shard run; titles with
    // varying term frequency and rarity.
    AddDoc(1, "novel");                       // one hit of 'novel'
    AddDoc(2, "novel novel novel");           // high tf
    AddDoc(3, "classic novel collection");    // one hit + extras
    AddDoc(4, "cotton shirt");                // no hit
    AddDoc(5, "rareword novel");              // contains a rare term
    db_->RefreshAll();
  }

  void AddDoc(int64_t record, const std::string& title) {
    Document doc;
    doc.Set(kFieldTenantId, Value(int64_t(1)));
    doc.Set(kFieldRecordId, Value(record));
    doc.Set(kFieldCreatedTime, Value(record));
    doc.Set("title", Value(title));
    ASSERT_TRUE(db_->Insert(std::move(doc)).ok());
  }

  std::unique_ptr<Esdb> db_;
};

TEST_F(ScoringTest, OrderByScoreRanksByRelevance) {
  auto result = db_->ExecuteSql(
      "SELECT * FROM t WHERE tenant_id = 1 AND MATCH(title, 'novel') "
      "ORDER BY _score DESC");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 4u);  // doc 4 does not match
  // Highest term frequency first.
  EXPECT_EQ(result->rows[0].record_id(), 2);
  // Scores are attached, positive, and non-increasing.
  double prev = 1e9;
  for (const Document& row : result->rows) {
    const Value& score = row.Get(kFieldScore);
    ASSERT_TRUE(score.is_double());
    EXPECT_GT(score.as_double(), 0.0);
    EXPECT_LE(score.as_double(), prev);
    prev = score.as_double();
  }
}

TEST_F(ScoringTest, RareTermsScoreHigherThanCommonOnes) {
  auto result = db_->ExecuteSql(
      "SELECT * FROM t WHERE tenant_id = 1 AND "
      "MATCH(title, 'rareword novel') ORDER BY _score DESC LIMIT 1");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  // Doc 5 holds the rare term (high idf) plus 'novel'.
  EXPECT_EQ(result->rows[0].record_id(), 5);
}

TEST_F(ScoringTest, ScoreSelectableAsColumn) {
  auto result = db_->ExecuteSql(
      "SELECT record_id, _score FROM t WHERE tenant_id = 1 AND "
      "MATCH(title, 'novel') ORDER BY _score DESC LIMIT 2");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 2u);
  EXPECT_EQ(result->rows[0].size(), 2u);
  EXPECT_TRUE(result->rows[0].Get(kFieldScore).is_double());
}

TEST_F(ScoringTest, NoMatchPredicateGivesZeroScores) {
  auto result = db_->ExecuteSql(
      "SELECT * FROM t WHERE tenant_id = 1 ORDER BY _score DESC");
  ASSERT_TRUE(result.ok());
  for (const Document& row : result->rows) {
    EXPECT_DOUBLE_EQ(row.Get(kFieldScore).as_double(), 0.0);
  }
}

TEST_F(ScoringTest, WithoutScoreSortNoScoreField) {
  auto result = db_->ExecuteSql(
      "SELECT * FROM t WHERE tenant_id = 1 AND MATCH(title, 'novel')");
  ASSERT_TRUE(result.ok());
  for (const Document& row : result->rows) {
    EXPECT_FALSE(row.Has(kFieldScore));  // scoring only when requested
  }
}

// BM25's N and df count the live docs of a shard's pinned snapshot,
// so how refreshes, merges and deletes cut those docs into segments
// must not move any score. Every layout of the same live docs in one
// shard must give each record a bit-identical _score.
class ScoreLayoutTest : public ::testing::Test {
 protected:
  static constexpr const char* kSql =
      "SELECT record_id, _score FROM t WHERE MATCH(title, 'novel') OR "
      "MATCH(title, 'rareword') ORDER BY _score DESC, record_id";

  std::unique_ptr<Esdb> MakeDb() {
    Esdb::Options options;
    options.num_shards = 1;
    options.routing = RoutingKind::kHash;
    options.store.refresh_doc_count = 0;
    return std::make_unique<Esdb>(std::move(options));
  }

  static std::string Title(int64_t record) {
    static const std::map<int64_t, std::string> kTitles = {
        {1, "novel"},           {2, "novel novel novel"},
        {3, "classic novel"},   {4, "cotton shirt"},
        {5, "rareword novel"},  {6, "novel lamp"},
        {7, "rareword"},        {8, "steel bottle"},
        {9, "novel novel rareword"},
        {100, "novel rareword rareword"},
        {101, "rareword"}};
    return kTitles.at(record);
  }

  static void Add(Esdb* db, const std::vector<int64_t>& records) {
    for (int64_t record : records) {
      Document doc;
      doc.Set(kFieldTenantId, Value(int64_t(1)));
      doc.Set(kFieldRecordId, Value(record));
      doc.Set(kFieldCreatedTime, Value(record));
      doc.Set("title", Value(Title(record)));
      ASSERT_TRUE(db->Insert(std::move(doc)).ok());
    }
  }

  static std::vector<std::pair<int64_t, double>> Scores(Esdb* db) {
    std::vector<std::pair<int64_t, double>> out;
    auto result = db->ExecuteSql(kSql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return out;
    for (const Document& row : result->rows) {
      EXPECT_TRUE(row.Get(kFieldScore).is_double());
      out.emplace_back(row.record_id(), row.Get(kFieldScore).as_double());
    }
    return out;
  }

  // The scores of `records` refreshed into a single segment.
  std::vector<std::pair<int64_t, double>> OneSegmentScores(
      const std::vector<int64_t>& records) {
    auto db = MakeDb();
    Add(db.get(), records);
    db->RefreshAll();
    EXPECT_EQ(Segments(db.get()), 1u);
    return Scores(db.get());
  }

  static size_t Segments(Esdb* db) { return db->shard(0)->Snapshot()->size(); }
};

TEST_F(ScoreLayoutTest, ScoresDoNotDependOnSegmentLayout) {
  const auto expected = OneSegmentScores({1, 2, 3, 4, 5, 6, 7, 8, 9});
  ASSERT_EQ(expected.size(), 7u);  // records 4 and 8 match neither term

  auto three = MakeDb();
  Add(three.get(), {1, 2, 3});
  three->RefreshAll();
  Add(three.get(), {4, 5, 6});
  three->RefreshAll();
  Add(three.get(), {7, 8, 9});
  three->RefreshAll();
  ASSERT_EQ(Segments(three.get()), 3u);
  EXPECT_EQ(Scores(three.get()), expected);

  // Records 100 and 101 hold the query terms and share the first
  // segment with records 1 and 2. Deleting 100 leaves a tombstone in
  // place; deleting 101 takes the segment to the merge policy's GC
  // threshold (half deleted), so that refresh merges both away.
  auto merged = MakeDb();
  Add(merged.get(), {100, 101, 1, 2});
  merged->RefreshAll();
  Add(merged.get(), {3, 4, 5, 6});
  merged->RefreshAll();
  Add(merged.get(), {7, 8, 9});
  merged->RefreshAll();
  ASSERT_TRUE(merged->Delete(1, 100, 100).ok());
  merged->RefreshAll();
  ASSERT_EQ(Segments(merged.get()), 3u);
  EXPECT_EQ(merged->shard(0)->Snapshot()->front().num_deleted(), 1u);
  EXPECT_EQ(Scores(merged.get()),
            OneSegmentScores({1, 2, 3, 4, 5, 6, 7, 8, 9, 101}))
      << "with a tombstone";
  ASSERT_TRUE(merged->Delete(1, 101, 101).ok());
  merged->RefreshAll();
  EXPECT_EQ(Segments(merged.get()), 2u);
  const SegmentSnapshot snapshot = merged->shard(0)->Snapshot();
  for (const SegmentView& view : *snapshot) {
    EXPECT_EQ(view.num_deleted(), 0u);  // the merge dropped both deletes
  }
  EXPECT_EQ(Scores(merged.get()), expected) << "after the merge";
}

}  // namespace
}  // namespace esdb
