#include <gtest/gtest.h>

#include "common/random.h"
#include "document/document.h"
#include "query/dsl.h"
#include "query/normalize.h"
#include "query/parser.h"
#include "support/reference_eval.h"

namespace esdb {
namespace {

Query MustParseSql(std::string_view sql) {
  auto q = ParseSql(sql);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return std::move(q).value();
}

Query MustParseDsl(std::string_view dsl) {
  auto q = ParseDsl(dsl);
  EXPECT_TRUE(q.ok()) << dsl << " -> " << q.status().ToString();
  return std::move(q).value();
}

TEST(DslRenderTest, TermAndBool) {
  const Query q = MustParseSql(
      "SELECT * FROM t WHERE tenant_id = 7 AND status = 1");
  const std::string dsl = QueryToDsl(q);
  EXPECT_NE(dsl.find("\"bool\""), std::string::npos);
  EXPECT_NE(dsl.find("\"must\""), std::string::npos);
  EXPECT_NE(dsl.find("{\"term\": {\"tenant_id\": 7}}"), std::string::npos)
      << dsl;
}

TEST(DslRenderTest, RangeFromBetween) {
  const Query q =
      MustParseSql("SELECT * FROM t WHERE created_time BETWEEN 5 AND 9");
  const std::string dsl = QueryToDsl(q);
  EXPECT_NE(dsl.find("\"range\""), std::string::npos);
  EXPECT_NE(dsl.find("\"gte\": 5"), std::string::npos) << dsl;
  EXPECT_NE(dsl.find("\"lte\": 9"), std::string::npos) << dsl;
}

TEST(DslRenderTest, WildcardFromLike) {
  const Query q =
      MustParseSql("SELECT * FROM t WHERE title LIKE '%nov_l%'");
  const std::string dsl = QueryToDsl(q);
  EXPECT_NE(dsl.find("\"wildcard\": {\"title\": \"*nov?l*\"}"),
            std::string::npos)
      << dsl;
}

TEST(DslRenderTest, SortSizeSourceAggs) {
  const Query q = MustParseSql(
      "SELECT record_id, status FROM t WHERE a = 1 "
      "ORDER BY created_time DESC LIMIT 100");
  const std::string dsl = QueryToDsl(q);
  EXPECT_NE(dsl.find("\"size\": 100"), std::string::npos);
  EXPECT_NE(dsl.find("{\"created_time\": \"desc\"}"), std::string::npos);
  EXPECT_NE(dsl.find("\"_source\": [\"record_id\", \"status\"]"),
            std::string::npos)
      << dsl;

  const Query agg = MustParseSql("SELECT SUM(amount) FROM t");
  const std::string agg_dsl = QueryToDsl(agg);
  EXPECT_NE(agg_dsl.find("\"sum\": {\"field\": \"amount\"}"),
            std::string::npos)
      << agg_dsl;
}

TEST(DslParseTest, MatchAllMeansNoWhere) {
  const Query q = MustParseDsl(R"({"query": {"match_all": {}}})");
  EXPECT_EQ(q.where, nullptr);
}

TEST(DslParseTest, TermTermsRange) {
  Query q = MustParseDsl(R"({"query": {"term": {"tenant_id": 7}}})");
  EXPECT_EQ(q.where->pred.op, PredOp::kEq);
  EXPECT_EQ(q.where->pred.args[0].as_int(), 7);

  q = MustParseDsl(R"({"query": {"terms": {"status": [1, 2, 3]}}})");
  EXPECT_EQ(q.where->pred.op, PredOp::kIn);
  EXPECT_EQ(q.where->pred.args.size(), 3u);

  q = MustParseDsl(
      R"({"query": {"range": {"t": {"gte": 5, "lt": 9}}}})");
  ASSERT_EQ(q.where->kind, Expr::Kind::kAnd);
  EXPECT_EQ(q.where->children[0]->pred.op, PredOp::kGe);
  EXPECT_EQ(q.where->children[1]->pred.op, PredOp::kLt);
}

TEST(DslParseTest, DateStringsBecomeTimestamps) {
  const Query q = MustParseDsl(
      R"({"query": {"range": {"created_time":
          {"gte": "2021-09-16 00:00:00"}}}})");
  EXPECT_TRUE(q.where->pred.args[0].is_int());
}

TEST(DslParseTest, BoolCombinations) {
  const Query q = MustParseDsl(R"({
    "query": {"bool": {
      "must": [{"term": {"a": 1}}],
      "should": [{"term": {"b": 2}}, {"term": {"b": 3}}],
      "must_not": [{"term": {"c": 4}}]
    }}})");
  ASSERT_EQ(q.where->kind, Expr::Kind::kAnd);
  ASSERT_EQ(q.where->children.size(), 3u);
  EXPECT_EQ(q.where->children[0]->pred.column, "a");
  EXPECT_EQ(q.where->children[1]->kind, Expr::Kind::kOr);
  EXPECT_EQ(q.where->children[2]->kind, Expr::Kind::kNot);
}

TEST(DslParseTest, SortSizeSource) {
  const Query q = MustParseDsl(R"({
    "query": {"match_all": {}},
    "sort": [{"created_time": "desc"}, {"record_id": "asc"}],
    "size": 50,
    "_source": ["record_id"]})");
  ASSERT_EQ(q.order_by.size(), 2u);
  EXPECT_TRUE(q.order_by[0].descending);
  EXPECT_EQ(q.limit, 50);
  EXPECT_EQ(q.select_columns, std::vector<std::string>{"record_id"});
}

TEST(DslParseTest, Aggregations) {
  const Query q = MustParseDsl(R"({
    "query": {"match_all": {}},
    "aggs": {"total": {"avg": {"field": "amount"}}}})");
  EXPECT_EQ(q.agg, AggFunc::kAvg);
  EXPECT_EQ(q.agg_column, "amount");
}

TEST(DslParseTest, RejectsMalformed) {
  EXPECT_FALSE(ParseDsl("").ok());
  EXPECT_FALSE(ParseDsl("{}").ok());  // missing query
  EXPECT_FALSE(ParseDsl(R"({"query": {"frobnicate": {}}})").ok());
  EXPECT_FALSE(ParseDsl(R"({"query": {"term": {}}})").ok());
  EXPECT_FALSE(ParseDsl(R"({"query": {"range": {"t": {"weird": 1}}}})").ok());
  EXPECT_FALSE(ParseDsl(R"({"query": {"bool": {}}})").ok());
  EXPECT_FALSE(ParseDsl(R"({"query": {"match_all": {}}, "size": "x"})").ok());
  EXPECT_FALSE(ParseDsl(R"({"query" {"match_all": {}}})").ok());
}

TEST(SqlToDslTest, PaperExampleTranslates) {
  auto dsl = SqlToDsl(
      "SELECT * FROM transaction_logs WHERE tenant_id = 10086 "
      "AND created_time >= '2021-09-16 00:00:00' "
      "AND created_time <= '2021-09-17 00:00:00' "
      "AND status = 1 OR group = 666");
  ASSERT_TRUE(dsl.ok()) << dsl.status().ToString();
  // Round-trips through the DSL parser.
  EXPECT_TRUE(ParseDsl(*dsl).ok()) << *dsl;
  // Predicate merge collapsed the two time bounds into one range.
  EXPECT_NE(dsl->find("\"gte\""), std::string::npos);
  EXPECT_NE(dsl->find("\"lte\""), std::string::npos);
}

TEST(SqlToDslTest, PredicateMergeInTranslation) {
  auto dsl = SqlToDsl(
      "SELECT * FROM t WHERE tenant_id = 1 OR tenant_id = 2");
  ASSERT_TRUE(dsl.ok());
  EXPECT_NE(dsl->find("\"terms\": {\"tenant_id\": [1, 2]}"),
            std::string::npos)
      << *dsl;
}

// Property: SQL -> DSL -> Query preserves semantics (evaluated on
// random documents), for a spread of query shapes.
class DslRoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DslRoundTripTest, SemanticsPreserved) {
  const std::string sql =
      std::string("SELECT * FROM t WHERE ") + GetParam();
  const Query original = MustParseSql(sql);
  auto dsl = SqlToDsl(sql);
  ASSERT_TRUE(dsl.ok()) << dsl.status().ToString();
  const Query round = MustParseDsl(*dsl);

  Rng rng(1234);
  for (int i = 0; i < 200; ++i) {
    Document doc;
    doc.Set("a", Value(int64_t(rng.Uniform(4))));
    doc.Set("b", Value(int64_t(rng.Uniform(4))));
    if (rng.Bernoulli(0.7)) doc.Set("c", Value(int64_t(rng.Uniform(4))));
    doc.Set("title", Value(std::string(
                         rng.Bernoulli(0.5) ? "classic novel" : "lamp")));
    ASSERT_NE(original.where, nullptr);
    ASSERT_NE(round.where, nullptr);
    EXPECT_EQ(EvalWhereOnDocument(*original.where, doc),
              EvalWhereOnDocument(*round.where, doc))
        << sql << "\n -> " << *dsl;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DslRoundTripTest,
    ::testing::Values(
        "a = 1", "a != 1", "a IN (1, 2)", "a BETWEEN 1 AND 2",
        "a >= 1 AND a < 3", "a = 1 AND b = 2", "a = 1 OR b = 2",
        "NOT (a = 1)", "a IS NULL", "c IS NOT NULL",
        "a = 1 AND (b = 2 OR c = 3)", "title LIKE '%novel%'",
        "MATCH(title, 'novel')", "NOT (a = 1 AND b = 2)",
        "a NOT IN (1, 2)", "(a = 1 OR a = 2) AND b != 0"));

}  // namespace
}  // namespace esdb
