// Robustness sweeps: every decoder and parser in the public surface
// must reject arbitrary byte garbage with a clean Status — no crash,
// no UB, no trailing-state corruption. These are cheap deterministic
// fuzz-ish property tests (fixed seeds, thousands of inputs).

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "common/random.h"
#include "document/document.h"
#include "document/json.h"
#include "query/dsl.h"
#include "query/parser.h"
#include "routing/rule_list.h"
#include "storage/persistence.h"
#include "storage/segment.h"
#include "storage/shard_store.h"
#include "storage/translog.h"

namespace esdb {
namespace {

std::string RandomBytes(Rng& rng, size_t max_len) {
  std::string out;
  const size_t len = rng.Uniform(max_len + 1);
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) out.push_back(char(rng.Uniform(256)));
  return out;
}

// Printable garbage: exercises parser token paths more than raw bytes.
std::string RandomText(Rng& rng, size_t max_len) {
  static constexpr char kAlphabet[] =
      "abcdefgSELECT FROM WHERE AND OR NOT ()=<>!'\",.*0123456789_%{}[]:";
  std::string out;
  const size_t len = rng.Uniform(max_len + 1);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(kAlphabet[rng.Uniform(sizeof(kAlphabet) - 1)]);
  }
  return out;
}

TEST(FuzzTest, DocumentDecodeNeverCrashes) {
  Rng rng(1);
  for (int i = 0; i < 5000; ++i) {
    (void)Document::Deserialize(RandomBytes(rng, 64));
  }
}

TEST(FuzzTest, DocumentDecodeMutatedValidInput) {
  Document doc;
  doc.Set("a", Value(int64_t(5)));
  doc.Set("b", Value("text"));
  doc.Set("c", Value(1.5));
  const std::string valid = doc.Serialize();
  Rng rng(2);
  for (int i = 0; i < 5000; ++i) {
    std::string mutated = valid;
    const size_t pos = rng.Uniform(mutated.size());
    mutated[pos] = char(rng.Uniform(256));
    auto result = Document::Deserialize(mutated);
    // Either cleanly rejected or decoded to SOME document — both fine;
    // the property is no crash / no hang.
    (void)result;
  }
}

TEST(FuzzTest, SegmentDecodeNeverCrashes) {
  IndexSpec spec;
  spec.composite_indexes = {{"tenant_id", "created_time"}};
  SegmentBuilder builder(&spec);
  Document doc;
  doc.Set(kFieldTenantId, Value(int64_t(1)));
  doc.Set(kFieldRecordId, Value(int64_t(1)));
  doc.Set(kFieldCreatedTime, Value(int64_t(1)));
  builder.Add(doc);
  const std::string valid = std::move(builder).Build(1)->Encode();

  Rng rng(3);
  for (int i = 0; i < 300; ++i) {
    (void)Segment::Decode(RandomBytes(rng, 200));
  }
  for (int i = 0; i < 2000; ++i) {
    std::string mutated = valid;
    mutated[rng.Uniform(mutated.size())] = char(rng.Uniform(256));
    (void)Segment::Decode(mutated);
  }
  // Every strict prefix is rejected: the column-stats trailer is
  // mandatory, so a file cut anywhere is incomplete.
  for (size_t len = 0; len < valid.size(); ++len) {
    EXPECT_FALSE(Segment::Decode(std::string_view(valid).substr(0, len)).ok())
        << "prefix of " << len << " of " << valid.size() << " bytes";
  }
  EXPECT_TRUE(Segment::Decode(valid).ok());
}

// The shard MANIFEST decodes strictly: OpenShard rejects every strict
// prefix of a saved one and a manifest of the previous format (v3),
// whose segment bytes followed another value order.
TEST(FuzzTest, ManifestDecodeIsStrict) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("esdb_fuzz_manifest_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
       "_" + std::to_string(::getpid()));
  IndexSpec spec;
  ShardStore::Options options;
  options.refresh_doc_count = 0;
  ShardStore store(&spec, options);
  for (int64_t i = 0; i < 12; ++i) {
    WriteOp op;
    op.type = OpType::kInsert;
    op.doc.Set(kFieldTenantId, Value(int64_t(1)));
    op.doc.Set(kFieldRecordId, Value(i));
    op.doc.Set(kFieldCreatedTime, Value(i));
    ASSERT_TRUE(store.Apply(op).ok());
    if (i % 5 == 4) store.Refresh();  // two segments and a translog tail
  }
  ASSERT_TRUE(SaveShard(store, dir.string()).ok());
  const fs::path manifest_path = dir / "MANIFEST";
  std::string manifest;
  {
    std::ifstream in(manifest_path, std::ios::binary);
    manifest.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_EQ(manifest.compare(0, 10, "ESDBSHARD4"), 0);
  const auto open_with = [&](std::string_view bytes) {
    {
      std::ofstream out(manifest_path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), std::streamsize(bytes.size()));
    }
    return OpenShard(&spec, options, dir.string()).ok();
  };
  for (size_t len = 0; len < manifest.size(); ++len) {
    EXPECT_FALSE(open_with(std::string_view(manifest).substr(0, len)))
        << "prefix of " << len << " of " << manifest.size() << " bytes";
  }
  std::string v3 = manifest;
  v3[9] = '3';
  EXPECT_FALSE(open_with(v3));
  EXPECT_TRUE(open_with(manifest));
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(FuzzTest, WriteOpDecodeNeverCrashes) {
  Rng rng(4);
  for (int i = 0; i < 5000; ++i) {
    (void)WriteOp::Decode(RandomBytes(rng, 48));
  }
}

TEST(FuzzTest, RuleListDecodeNeverCrashes) {
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    (void)RuleList::Decode(RandomBytes(rng, 48));
  }
}

TEST(FuzzTest, SqlParserNeverCrashes) {
  Rng rng(6);
  for (int i = 0; i < 5000; ++i) {
    (void)ParseSql(RandomText(rng, 80));
    (void)ParseDml(RandomText(rng, 80));
  }
}

TEST(FuzzTest, JsonAndDslParsersNeverCrash) {
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    (void)FromJson(RandomText(rng, 80));
    (void)ParseDsl(RandomText(rng, 80));
  }
  for (int i = 0; i < 2000; ++i) {
    (void)FromJson(RandomBytes(rng, 60));
    (void)ParseDsl(RandomBytes(rng, 60));
  }
}

TEST(FuzzTest, DslDeepNestingBounded) {
  // Deeply nested bool clauses should parse (or fail) without stack
  // issues at reasonable depths.
  std::string dsl = R"({"query": )";
  const int depth = 200;
  for (int i = 0; i < depth; ++i) {
    dsl += R"({"bool": {"must": [)";
  }
  dsl += R"({"term": {"a": 1}})";
  for (int i = 0; i < depth; ++i) dsl += "]}}";
  dsl += "}";
  auto result = ParseDsl(dsl);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
}

}  // namespace
}  // namespace esdb
