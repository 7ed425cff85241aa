// Segment::Merge (the structural merge) against the definition it
// replaces: a SegmentBuilder fed the inputs' live documents, in order,
// through GetDocument. The two must agree on Encode() and
// EncodeIndexPart() bytes, SizeBytes(), every doc-values column's
// uniform tag, every record-id lookup and every attribute-sidecar
// lookup — across tombstones, cold inputs, explicit nulls, mixed-tag
// columns, columns some inputs lack, and the numeric edge values
// (NaN, ±0.0, ±2^53).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "storage/block_cache.h"
#include "storage/cold_segment.h"
#include "storage/segment.h"
#include "storage/shard_store.h"

namespace esdb {
namespace {

constexpr int64_t kTwo53 = int64_t(1) << 53;

IndexSpec MergeSpec() {
  IndexSpec spec;
  spec.text_fields = {"title"};
  spec.composite_indexes = {{"tenant_id", "created_time"}, {"status"}};
  spec.indexed_sub_attributes = {"activity", "color"};
  return spec;
}

// The value a doc's "val" field takes: every numeric edge case the
// index encodings and the column sketches must carry over unchanged.
Value EdgeValue(Rng& rng) {
  switch (rng.Uniform(12)) {
    case 0: return Value(std::numeric_limits<double>::quiet_NaN());
    case 1: return Value(-0.0);
    case 2: return Value(0.0);
    case 3: return Value(kTwo53);
    case 4: return Value(-kTwo53);
    case 5: return Value(kTwo53 + 1);
    case 6: return Value(double(kTwo53));
    case 7: return Value(-double(kTwo53));
    case 8: return Value(std::numeric_limits<double>::infinity());
    case 9: return Value(int64_t(rng.UniformRange(-5, 5)));
    case 10: return Value(rng.NextDouble() - 0.5);
    default: return Value(std::string("v") + std::to_string(rng.Uniform(4)));
  }
}

// Documents of input `input` of a merge. Field presence varies per
// input (`only_<input>` exists in one input, `title` and `note` take
// explicit nulls) and "mixed" changes tag per doc, so column existence
// and uniform_tag() are exercised as much as values are.
Document MakeDoc(Rng& rng, int input, int64_t record) {
  static const char* kWords[] = {"red", "blue", "novel", "lamp", "desk"};
  static const char* kKeys[] = {"activity", "color", "size", "brand"};
  Document doc;
  doc.Set(kFieldTenantId, Value(int64_t(rng.Uniform(3))));
  doc.Set(kFieldRecordId, Value(record));
  doc.Set(kFieldCreatedTime, Value(int64_t(1000 + rng.Uniform(50))));
  doc.Set("status", Value(int64_t(rng.Uniform(3))));
  doc.Set("val", EdgeValue(rng));
  switch (rng.Uniform(5)) {
    case 0: doc.Set("mixed", Value(int64_t(7))); break;
    case 1: doc.Set("mixed", Value(7.5)); break;
    case 2: doc.Set("mixed", Value("seven")); break;
    case 3: doc.Set("mixed", Value(true)); break;
    default: break;
  }
  switch (rng.Uniform(6)) {
    case 0: doc.Set("title", Value()); break;
    case 1: doc.Set("title", Value("")); break;
    case 2: doc.Set("title", Value(int64_t(42))); break;
    default: {
      std::string title;
      for (uint64_t w = 0, n = 1 + rng.Uniform(4); w < n; ++w) {
        title += std::string(kWords[rng.Uniform(5)]) + " ";
      }
      doc.Set("title", Value(title));
    }
  }
  if (rng.Bernoulli(0.3)) doc.Set("note", Value());
  if (rng.Bernoulli(0.5)) {
    doc.Set("only_" + std::to_string(input), Value(int64_t(record)));
  }
  if (rng.Bernoulli(0.1)) {
    doc.Set(kFieldAttributes, Value());
  } else if (rng.Bernoulli(0.8)) {
    std::map<std::string, std::string> attrs;
    for (uint64_t k = 0, n = rng.Uniform(4); k < n; ++k) {
      // Draws the value before the key: the corpus depends on the order.
      std::string value = std::to_string(rng.Uniform(5));
      value.insert(0, 1, 'x');
      attrs[kKeys[rng.Uniform(4)]] = std::move(value);
    }
    doc.Set(kFieldAttributes, Value(EncodeAttributes(attrs)));
  }
  return doc;
}

SegmentView Hot(std::unique_ptr<Segment> seg,
                std::shared_ptr<const Tombstones> tombstones = nullptr) {
  return SegmentView{std::shared_ptr<const Segment>(std::move(seg)),
                     std::move(tombstones), nullptr};
}

SegmentView Cold(const Segment& seg,
                 std::shared_ptr<const Tombstones> tombstones,
                 std::shared_ptr<BlockCache> cache) {
  auto cold = ColdSegment::FromSegment(seg, "", std::move(cache));
  EXPECT_TRUE(cold.ok()) << cold.status().ToString();
  return SegmentView{nullptr, std::move(tombstones), *cold};
}

std::shared_ptr<const Tombstones> Delete(const Tombstones* base,
                                         uint32_t num_docs,
                                         const std::vector<DocId>& ids) {
  std::shared_ptr<const Tombstones> out;
  for (DocId id : ids) {
    out = Tombstones::WithDeleted(out != nullptr ? out.get() : base,
                                  num_docs, id);
  }
  return out;
}

// The reference: every live doc of `inputs`, in order, re-indexed.
std::unique_ptr<Segment> Rebuild(const std::vector<SegmentView>& inputs,
                                 const IndexSpec& spec, uint64_t id,
                                 std::vector<Document>* docs) {
  SegmentBuilder builder(&spec);
  for (const SegmentView& view : inputs) {
    const PostingList live = view.LiveDocs();
    for (DocId d : live.ids()) {
      auto doc = view.GetDocument(d);
      EXPECT_TRUE(doc.ok()) << doc.status().ToString();
      docs->push_back(*doc);
      builder.Add(*doc);
    }
  }
  return std::move(builder).Build(id);
}

void ExpectSameSegment(const Segment& merged, const Segment& built,
                       const std::vector<Document>& docs) {
  ASSERT_EQ(merged.num_docs(), built.num_docs());
  EXPECT_EQ(merged.Encode(), built.Encode());
  EXPECT_EQ(merged.EncodeIndexPart(), built.EncodeIndexPart());
  EXPECT_EQ(merged.SizeBytes(), built.SizeBytes());

  ASSERT_EQ(merged.doc_values().columns().size(),
            built.doc_values().columns().size());
  for (const auto& [name, col] : built.doc_values().columns()) {
    const DocValues::Column* other = merged.doc_values().Find(name);
    ASSERT_NE(other, nullptr) << name;
    EXPECT_EQ(other->uniform_tag(), col.uniform_tag()) << name;
  }

  std::set<std::string> keys = {"absent"};
  for (const Document& doc : docs) {
    EXPECT_EQ(merged.FindByRecordId(doc.record_id()),
              built.FindByRecordId(doc.record_id()));
    const Value& attrs = doc.Get(kFieldAttributes);
    if (!attrs.is_string()) continue;
    for (const auto& [key, value] : ParseAttributes(attrs.as_string())) {
      keys.insert(key);
    }
  }
  const AttributeSidecar& ms = *merged.attribute_sidecar();
  const AttributeSidecar& bs = *built.attribute_sidecar();
  EXPECT_EQ(ms.num_keys(), bs.num_keys());
  for (const std::string& key : keys) {
    ASSERT_EQ(ms.KeyId(key), bs.KeyId(key)) << key;
    for (DocId d = 0; d < built.num_docs(); ++d) {
      const std::string* a = ms.Get(d, ms.KeyId(key));
      const std::string* b = bs.Get(d, bs.KeyId(key));
      ASSERT_EQ(a == nullptr, b == nullptr) << key << " doc " << d;
      if (b != nullptr) {
        EXPECT_EQ(*a, *b) << key << " doc " << d;
      }
    }
  }
}

void ExpectMergeMatchesRebuild(const std::vector<SegmentView>& inputs,
                               const IndexSpec& spec) {
  auto merged = Segment::Merge(inputs, spec, 99);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  std::vector<Document> docs;
  const std::unique_ptr<Segment> built = Rebuild(inputs, spec, 99, &docs);
  ExpectSameSegment(**merged, *built, docs);
}

class SegmentMergeTest : public ::testing::Test {
 protected:
  std::unique_ptr<Segment> Build(int input, int n, uint64_t id,
                                 const IndexSpec& spec) {
    SegmentBuilder builder(&spec);
    for (int i = 0; i < n; ++i) {
      builder.Add(MakeDoc(rng_, input, next_record_++));
    }
    return std::move(builder).Build(id);
  }

  Rng rng_{17};
  int64_t next_record_ = 0;
};

TEST_F(SegmentMergeTest, RandomInputsWithTombstonesMatchRebuild) {
  const IndexSpec spec = MergeSpec();
  for (int round = 0; round < 40; ++round) {
    std::vector<SegmentView> inputs;
    const int k = 1 + int(rng_.Uniform(4));
    for (int i = 0; i < k; ++i) {
      const int n = 1 + int(rng_.Uniform(40));
      auto seg = Build(i, n, uint64_t(i + 1), spec);
      std::vector<DocId> dead;
      for (DocId d = 0; d < DocId(n); ++d) {
        if (rng_.Bernoulli(0.3)) dead.push_back(d);
      }
      auto tombstones = Delete(nullptr, uint32_t(n), dead);
      inputs.push_back(Hot(std::move(seg), std::move(tombstones)));
    }
    SCOPED_TRACE("round " + std::to_string(round));
    ExpectMergeMatchesRebuild(inputs, spec);
  }
}

TEST_F(SegmentMergeTest, SpecsWithoutOrWithEverySubAttribute) {
  IndexSpec none = MergeSpec();
  none.indexed_sub_attributes.clear();
  IndexSpec all = MergeSpec();
  all.index_all_sub_attributes = true;
  for (const IndexSpec* spec : {&none, &all}) {
    std::vector<SegmentView> inputs;
    for (int i = 0; i < 3; ++i) {
      auto seg = Build(i, 30, uint64_t(i + 1), *spec);
      inputs.push_back(Hot(std::move(seg), Delete(nullptr, 30, {1, 4, 9})));
    }
    ExpectMergeMatchesRebuild(inputs, *spec);
  }
}

TEST_F(SegmentMergeTest, ColdAndHotInputsMatchRebuild) {
  const IndexSpec spec = MergeSpec();
  auto cache = std::make_shared<BlockCache>();
  std::vector<SegmentView> inputs;
  // 600 docs span three 256-doc row blocks; the middle block is
  // entirely deleted, so the merge must skip it.
  auto big = Build(0, 600, 1, spec);
  std::vector<DocId> dead;
  for (DocId d = 256; d < 512; ++d) dead.push_back(d);
  dead.push_back(3);
  inputs.push_back(Cold(*big, Delete(nullptr, 600, dead), cache));
  auto hot = Build(1, 25, 2, spec);
  inputs.push_back(Hot(std::move(hot), Delete(nullptr, 25, {0, 24})));
  auto small = Build(2, 10, 3, spec);
  inputs.push_back(Cold(*small, nullptr, nullptr));
  ExpectMergeMatchesRebuild(inputs, spec);
}

TEST_F(SegmentMergeTest, AllDeletedInputsMergeToAnEmptySegment) {
  const IndexSpec spec = MergeSpec();
  std::vector<SegmentView> inputs;
  for (int i = 0; i < 2; ++i) {
    auto seg = Build(i, 5, uint64_t(i + 1), spec);
    inputs.push_back(Hot(std::move(seg), Delete(nullptr, 5, {0, 1, 2, 3, 4})));
  }
  auto merged = Segment::Merge(inputs, spec, 7);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ((*merged)->num_docs(), 0u);
  ExpectMergeMatchesRebuild(inputs, spec);
}

// The field states a doc-values column cannot tell apart: a field set
// to null versus a field the doc lacks. Only a live doc's explicit
// null keeps the column (and, for a keyword field, the null term).
TEST_F(SegmentMergeTest, ExplicitNullsDecideColumnExistence) {
  const IndexSpec spec = MergeSpec();
  const auto doc = [](int64_t record, const char* field, Value v) {
    Document d;
    d.Set(kFieldTenantId, Value(int64_t(1)));
    d.Set(kFieldRecordId, Value(record));
    d.Set(kFieldCreatedTime, Value(record));
    if (field != nullptr) d.Set(field, std::move(v));
    return d;
  };
  struct Case {
    const char* field;
    bool null_survives;  // the live doc carries the explicit null
  };
  for (const Case& c : {Case{"title", true}, Case{"title", false},
                        Case{"note", true}, Case{"note", false}}) {
    SegmentBuilder builder(&spec);
    builder.Add(doc(1, c.field, Value("dropped words")));  // deleted
    builder.Add(doc(2, c.null_survives ? c.field : nullptr, Value()));
    builder.Add(doc(3, nullptr, Value()));
    std::vector<SegmentView> inputs;
    inputs.push_back(Hot(std::move(builder).Build(1), Delete(nullptr, 3, {0})));
    SCOPED_TRACE(std::string(c.field) +
                 (c.null_survives ? " null survives" : " field dropped"));
    ExpectMergeMatchesRebuild(inputs, spec);
    inputs[0] = Cold(*inputs[0].segment, inputs[0].tombstones, nullptr);
    ExpectMergeMatchesRebuild(inputs, spec);
  }
}

// A text field that only empty strings reach keeps an index with no
// terms; once those docs are deleted the index goes.
TEST_F(SegmentMergeTest, EmptyTextKeepsItsIndexWhileLive) {
  const IndexSpec spec = MergeSpec();
  for (bool keep_empty : {true, false}) {
    SegmentBuilder builder(&spec);
    for (int64_t r = 0; r < 3; ++r) {
      Document d;
      d.Set(kFieldRecordId, Value(r));
      d.Set("title", r == 0 ? Value("") : Value(int64_t(5)));
      builder.Add(d);
    }
    std::vector<SegmentView> inputs;
    inputs.push_back(Hot(std::move(builder).Build(1),
                         keep_empty ? nullptr : Delete(nullptr, 3, {0})));
    ExpectMergeMatchesRebuild(inputs, spec);
    auto merged = Segment::Merge(inputs, spec, 2);
    ASSERT_TRUE(merged.ok());
    EXPECT_EQ((*merged)->HasInvertedIndex("title"), keep_empty);
  }
}

TEST_F(SegmentMergeTest, MissingCompositeIsRefused) {
  IndexSpec bare = MergeSpec();
  bare.composite_indexes.clear();
  std::vector<SegmentView> inputs;
  inputs.push_back(Hot(Build(0, 4, 1, bare)));
  auto merged = Segment::Merge(inputs, MergeSpec(), 2);
  EXPECT_FALSE(merged.ok());
}

// --- Through the shard store: GC and tier rewrites ----------------------

WriteOp Insert(Rng& rng, int64_t record) {
  WriteOp op;
  op.type = OpType::kInsert;
  op.doc = MakeDoc(rng, 0, record);
  return op;
}

WriteOp DeleteOp(int64_t record) {
  WriteOp op;
  op.type = OpType::kDelete;
  op.doc.Set(kFieldRecordId, Value(record));
  return op;
}

// Runs one MaybeMerge and checks the segment it produced against a
// rebuild of the live docs of the segments it replaced.
void ExpectMergeRoundMatchesRebuild(ShardStore* store, const IndexSpec& spec) {
  const SegmentSnapshot before = store->Snapshot();
  ASSERT_TRUE(store->MaybeMerge());
  const SegmentSnapshot after = store->Snapshot();
  std::set<uint64_t> kept;
  for (const SegmentView& view : *after) kept.insert(view.id());
  std::vector<SegmentView> inputs;
  for (const SegmentView& view : *before) {
    if (kept.count(view.id()) == 0) inputs.push_back(view);
  }
  ASSERT_FALSE(inputs.empty());
  const SegmentView& out = after->back();
  std::vector<Document> docs;
  const std::unique_ptr<Segment> built = Rebuild(inputs, spec, out.id(), &docs);
  EXPECT_EQ(out.SizeBytes(), built->SizeBytes());
  if (!out.is_cold()) {
    ExpectSameSegment(*out.segment, *built, docs);
    return;
  }
  // A cold output keeps no Segment object: compare its full file
  // image, which decodes back to the same bytes.
  auto full = out.EncodeFull();
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(*full, built->Encode());
  auto decoded = Segment::Decode(*full);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectSameSegment(**decoded, *built, docs);
}

TEST(SegmentMergeStoreTest, SingleInputGcMatchesRebuild) {
  const IndexSpec spec = MergeSpec();
  ShardStore::Options options;
  options.refresh_doc_count = 0;
  ShardStore store(&spec, options);
  Rng rng(5);
  for (int64_t r = 0; r < 50; ++r) ASSERT_TRUE(store.Apply(Insert(rng, r)).ok());
  store.Refresh();
  for (int64_t r = 0; r < 50; r += 3) ASSERT_TRUE(store.Apply(DeleteOp(r)).ok());
  for (int64_t r = 1; r < 50; r += 3) ASSERT_TRUE(store.Apply(DeleteOp(r)).ok());
  ASSERT_EQ(store.Snapshot()->size(), 1u);
  ExpectMergeRoundMatchesRebuild(&store, spec);
  EXPECT_EQ(store.Snapshot()->size(), 1u);
  EXPECT_EQ(store.num_live_docs(), 16u);
}

TEST(SegmentMergeStoreTest, TierRewritesMatchRebuild) {
  const IndexSpec spec = MergeSpec();
  ShardStore::Options options;
  options.refresh_doc_count = 0;
  options.merge.max_segments = 2;
  options.tier.enabled = true;
  options.tier.cache = std::make_shared<BlockCache>();
  ShardStore store(&spec, options);
  Rng rng(6);
  for (int64_t r = 0; r < 300; ++r) {
    ASSERT_TRUE(store.Apply(Insert(rng, r)).ok());
    if (r % 100 == 99) store.Refresh();
  }
  ASSERT_TRUE(store.Apply(DeleteOp(7)).ok());
  ASSERT_TRUE(store.Apply(DeleteOp(150)).ok());
  // An ordinary merge (three segments over a cap of two), then a
  // demotion and a promotion rewrite with tombstones on cold inputs.
  ExpectMergeRoundMatchesRebuild(&store, spec);
  store.SetTierCold(true);
  ExpectMergeRoundMatchesRebuild(&store, spec);
  ASSERT_TRUE(store.Snapshot()->back().is_cold());
  ASSERT_TRUE(store.Apply(DeleteOp(42)).ok());
  store.SetTierCold(false);
  ExpectMergeRoundMatchesRebuild(&store, spec);
  EXPECT_FALSE(store.Snapshot()->back().is_cold());
  EXPECT_EQ(store.num_live_docs(), 297u);
}

}  // namespace
}  // namespace esdb
