// One value order on every access path. Each program below loads a few
// documents whose `val` holds the edge values of the order (NaN, -0.0,
// strings above numbers, ints past 2^53) and asks one question of
// them. The answer must not depend on the plan that runs it: the same
// number comes back from the costed planner, the rules-only planner
// and the doc-value scan (`val` in the scan list behind a `tenant_id`
// candidate set), which read the value order through the index terms
// and column sketches, EncodeSortable bytes, and the filter loops
// respectively.
//
// Each program runs twice: once with the documents split into the
// listed segments, once with every document in one segment. A split
// segment whose `val` column holds one type runs the int64 or
// double-order-key fast path of the doc-value filter; a mixed one
// runs the generic slot comparison.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cluster/esdb.h"

namespace esdb {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr int64_t kTwo53 = int64_t(1) << 53;

struct Program {
  std::vector<std::vector<Value>> segments;  // `val` of each doc
  std::string select;                        // "COUNT(*)" or "MIN(val)"
  std::string where;                         // "" for none
  Value answer;
};

// {-0.0, 0.0, double 2^53} and {int 2^53 + 1}.
std::vector<std::vector<Value>> ZerosAnd2p53() {
  return {{Value(-0.0), Value(0.0), Value(0x1p53)}, {Value(kTwo53 + 1)}};
}

std::unique_ptr<Esdb> Load(const Program& program, bool scan_val,
                           bool one_segment) {
  Esdb::Options options;
  options.num_shards = 1;
  options.routing = RoutingKind::kHash;
  options.store.refresh_doc_count = 0;
  options.store.merge.max_segments = 100;  // keep the listed segments
  if (scan_val) options.spec.scan_fields.insert("val");
  auto db = std::make_unique<Esdb>(std::move(options));
  int64_t record = 0;
  for (const std::vector<Value>& segment : program.segments) {
    for (const Value& v : segment) {
      Document doc;
      doc.Set(kFieldTenantId, Value(int64_t(1)));
      doc.Set(kFieldRecordId, Value(record));
      doc.Set(kFieldCreatedTime, Value(1000 + record));
      doc.Set("val", v);
      ++record;
      EXPECT_TRUE(db->Insert(std::move(doc)).ok());
    }
    if (!one_segment) db->RefreshAll();
  }
  db->RefreshAll();
  return db;
}

Value Answer(const QueryResult& r, const std::string& select) {
  if (select == "COUNT(*)") return Value(int64_t(r.agg_count));
  return r.agg_min ? *r.agg_min : Value::Null();
}

void ExpectOneAnswer(const Program& program) {
  PlannerOptions costed;
  PlannerOptions rules_only;
  rules_only.use_cost_model = false;
  for (const bool one_segment : {false, true}) {
    for (const bool scan : {false, true}) {
      auto db = Load(program, scan, one_segment);
      // The scan path needs a candidate set to filter: tenant_id's
      // postings, read by doc value after that.
      std::string where = program.where;
      if (scan) {
        where = where.empty() ? "tenant_id = 1" : "tenant_id = 1 AND " + where;
      }
      const std::string sql = "SELECT " + program.select + " FROM t" +
                              (where.empty() ? "" : " WHERE " + where);
      if (scan && !program.where.empty()) {
        auto explained = db->ExplainSql(sql);
        ASSERT_TRUE(explained.ok()) << explained.status().ToString();
        EXPECT_NE(explained->find("DocValueScan"), std::string::npos)
            << *explained;
      }
      for (const PlannerOptions* planner : {&costed, &rules_only}) {
        SCOPED_TRACE(sql + (one_segment ? " (one segment, " : " (split, ") +
                     (planner == &costed ? "costed)" : "rules-only)"));
        auto result = db->ExecuteSqlWithPlanner(sql, *planner);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        const Value got = Answer(*result, program.select);
        EXPECT_EQ(got.type(), program.answer.type()) << got.ToString();
        EXPECT_EQ(got.Compare(program.answer), 0) << got.ToString();
      }
    }
  }
}

// A NaN is above every number, so it is never the minimum; a sketch
// min that stuck at NaN made the stats-only answer 1.
TEST(ValueOrderTest, MinSkipsNaN) {
  ExpectOneAnswer({{{Value(int64_t(1))}, {Value(kNaN), Value(int64_t(0))}},
                   "MIN(val)", "", Value(int64_t(0))});
}

// NaN and "s" are both above 1, through the term range and the scan.
TEST(ValueOrderTest, RangeCountsNaNAndStrings) {
  ExpectOneAnswer({{{Value(kNaN), Value(0.5), Value(2.5)}, {Value("s")}},
                   "COUNT(*)", "val > 1", Value(int64_t(3))});
}

// -0.0 equals 0.0, so it is >= 0 on every path.
TEST(ValueOrderTest, NegativeZeroEqualsZero) {
  ExpectOneAnswer({ZerosAnd2p53(), "COUNT(*)", "val >= 0", Value(int64_t(4))});
}

// Int 2^53 + 1 is not double 2^53: equality is exact...
TEST(ValueOrderTest, EqualityPast2p53IsExact) {
  ExpectOneAnswer({ZerosAnd2p53(), "COUNT(*)", "val = 9007199254740993",
                   Value(int64_t(1))});
}

// ...and so is order: only the int is above 2^53.
TEST(ValueOrderTest, RangePast2p53IsExact) {
  ExpectOneAnswer({ZerosAnd2p53(), "COUNT(*)", "val > 9007199254740992",
                   Value(int64_t(1))});
}

}  // namespace
}  // namespace esdb
