// Two-phase row queries (Section 3.2) against stored documents: every
// row answer of the coordinator (query phase on each shard, global
// merge, offset/limit, fetch of the winners, projection) must equal the
// rows recomputed from each target shard's decoded documents with
// tests/support/reference_eval.h, in the coordinator's order: fan-out
// order, then segment, then doc, stable-sorted by ORDER BY.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "cluster/esdb.h"
#include "common/random.h"
#include "query/parser.h"
#include "storage/analyzer.h"
#include "support/reference_eval.h"

namespace esdb {
namespace {

std::unique_ptr<Esdb> BuildCluster(uint64_t seed, int docs) {
  Esdb::Options options;
  options.num_shards = 8;
  options.routing = RoutingKind::kDoubleHash;  // multi-shard merges
  options.store.refresh_doc_count = 0;
  auto db = std::make_unique<Esdb>(std::move(options));
  Rng rng(seed);
  for (int64_t i = 0; i < docs; ++i) {
    Document doc;
    doc.Set(kFieldTenantId, Value(int64_t(1 + rng.Uniform(4))));
    doc.Set(kFieldRecordId, Value(i));
    doc.Set(kFieldCreatedTime, Value(int64_t(rng.Uniform(1000))));
    doc.Set("status", Value(int64_t(rng.Uniform(3))));
    doc.Set("title", Value(std::string(
                         rng.Bernoulli(0.4) ? "classic novel" : "lamp")));
    EXPECT_TRUE(db->Insert(std::move(doc)).ok());
  }
  db->RefreshAll();
  return db;
}

bool SelectsOrSortsScore(const Query& query) {
  for (const OrderBy& ob : query.order_by) {
    if (ob.column == kFieldScore) return true;
  }
  return std::find(query.select_columns.begin(), query.select_columns.end(),
                   kFieldScore) != query.select_columns.end();
}

// The MATCH predicates that score: not under a NOT.
void CollectScoringMatches(const Expr& e, bool negated,
                           std::vector<const Predicate*>* out) {
  if (e.kind == Expr::Kind::kPred) {
    if (!negated && e.pred.op == PredOp::kMatch &&
        e.pred.args[0].is_string()) {
      out->push_back(&e.pred);
    }
    return;
  }
  for (const auto& c : e.children) {
    CollectScoringMatches(*c, negated != (e.kind == Expr::Kind::kNot), out);
  }
}

// BM25 over one shard's decoded live docs, as ExecuteFetchPhase defines
// it: idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5)) with N and df counted
// over `shard_docs`, and tf / (tf + 1.2) per query token.
double ReferenceScore(const Query& query,
                      const std::vector<Document>& shard_docs,
                      const Document& doc) {
  std::vector<const Predicate*> matches;
  if (query.where != nullptr) {
    CollectScoringMatches(*query.where, false, &matches);
  }
  const auto count = [](const std::vector<std::string>& tokens,
                        const std::string& token) {
    return double(std::count(tokens.begin(), tokens.end(), token));
  };
  const auto tokens_of = [](const Document& d, const std::string& column) {
    const Value& v = d.Get(column);
    return v.is_string() ? Tokenize(v.as_string())
                         : std::vector<std::string>{};
  };
  const double num_docs = double(shard_docs.size());
  double score = 0;
  for (const Predicate* match : matches) {
    const std::vector<std::string> doc_tokens = tokens_of(doc, match->column);
    for (const std::string& token : Tokenize(match->args[0].as_string())) {
      const double tf = count(doc_tokens, token);
      if (tf == 0) continue;
      double df = 0;
      for (const Document& other : shard_docs) {
        df += count(tokens_of(other, match->column), token) > 0 ? 1 : 0;
      }
      const double idf = std::log(1.0 + (num_docs - df + 0.5) / (df + 0.5));
      score += idf * tf / (tf + 1.2);
    }
  }
  return score;
}

// The shards a query fans out to, in the coordinator's order: the
// tenant's routed run for a top-level tenant_id equality, else all.
std::vector<ShardId> FanOut(const Esdb& db, const Query& query) {
  if (query.where != nullptr) {
    std::vector<const Expr*> conjuncts = {query.where.get()};
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      const Expr& e = *conjuncts[i];
      if (e.kind == Expr::Kind::kAnd) {
        for (const auto& c : e.children) conjuncts.push_back(c.get());
      } else if (e.kind == Expr::Kind::kPred &&
                 e.pred.column == kFieldTenantId &&
                 e.pred.op == PredOp::kEq && e.pred.args.size() == 1 &&
                 e.pred.args[0].is_int()) {
        return db.routing().RouteRead(e.pred.args[0].as_int());
      }
    }
  }
  std::vector<ShardId> all(db.num_shards());
  for (ShardId s = 0; s < db.num_shards(); ++s) all[s] = s;
  return all;
}

// The coordinator's answer recomputed from decoded stored documents.
struct Reference {
  std::vector<Document> rows;  // after sort, offset, limit, projection
  uint64_t matched = 0;        // every match, before offset and limit
};

Reference ReferenceRows(const Esdb& db, const Query& query) {
  const bool scoring = SelectsOrSortsScore(query);
  Reference out;
  std::vector<Document> matches;
  for (ShardId shard : FanOut(db, query)) {
    std::vector<Document> live;  // fan-out, segment, doc order
    const SegmentSnapshot snapshot = db.shard(shard)->Snapshot();
    for (const SegmentView& view : *snapshot) {
      for (DocId id = 0; id < DocId(view.num_docs()); ++id) {
        if (view.IsDeleted(id)) continue;
        auto doc = view.GetDocument(id);
        EXPECT_TRUE(doc.ok()) << doc.status().ToString();
        if (doc.ok()) live.push_back(std::move(*doc));
      }
    }
    for (const Document& doc : live) {
      if (query.where != nullptr && !EvalWhereOnDocument(*query.where, doc)) {
        continue;
      }
      matches.push_back(doc);
      if (scoring) {
        matches.back().Set(kFieldScore,
                           Value(ReferenceScore(query, live, doc)));
      }
    }
  }
  out.matched = matches.size();
  std::stable_sort(matches.begin(), matches.end(),
                   [&](const Document& a, const Document& b) {
                     return ReferenceOrderLess(query, a, b);
                   });
  const size_t skip = std::min(size_t(query.offset), matches.size());
  matches.erase(matches.begin(), matches.begin() + long(skip));
  if (query.limit >= 0 && int64_t(matches.size()) > query.limit) {
    matches.resize(size_t(query.limit));
  }
  for (Document& doc : matches) {
    out.rows.push_back(ReferenceProject(query, std::move(doc)));
  }
  return out;
}

class TwoPhaseTest : public ::testing::Test {
 protected:
  void SetUp() override { db_ = BuildCluster(31337, 400); }

  Query Parse(const std::string& sql) {
    auto query = ParseSql(sql);
    EXPECT_TRUE(query.ok()) << sql << ": " << query.status().ToString();
    return std::move(query).value();
  }

  // Rows compare by serialized bytes, so field types and _score bits
  // must match too. A pushed-down ORDER BY may stop counting early;
  // total_matched is then a lower bound.
  void ExpectMatchesStoredDocs(const std::string& sql) {
    SCOPED_TRACE(sql);
    const Reference want = ReferenceRows(*db_, Parse(sql));
    auto got = db_->ExecuteSql(sql);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->rows.size(), want.rows.size());
    for (size_t i = 0; i < want.rows.size(); ++i) {
      EXPECT_EQ(got->rows[i].Serialize(), want.rows[i].Serialize())
          << "row " << i;
    }
    if (got->total_matched_exact) {
      EXPECT_EQ(got->total_matched, want.matched);
    } else {
      EXPECT_LE(got->total_matched, want.matched);
    }
  }

  std::unique_ptr<Esdb> db_;
};

TEST_F(TwoPhaseTest, SortedLimitedQueries) {
  ExpectMatchesStoredDocs(
      "SELECT * FROM t WHERE tenant_id = 1 "
      "ORDER BY created_time DESC LIMIT 10");
  ExpectMatchesStoredDocs(
      "SELECT * FROM t WHERE status = 1 "
      "ORDER BY created_time, record_id LIMIT 25");
}

TEST_F(TwoPhaseTest, OffsetPages) {
  for (int offset : {0, 5, 37, 395, 1000}) {
    ExpectMatchesStoredDocs(
        "SELECT * FROM t ORDER BY record_id LIMIT 10 OFFSET " +
        std::to_string(offset));
  }
}

TEST_F(TwoPhaseTest, ProjectionAndScoring) {
  ExpectMatchesStoredDocs(
      "SELECT record_id, status FROM t WHERE tenant_id = 2 "
      "ORDER BY created_time LIMIT 20");
  ExpectMatchesStoredDocs(
      "SELECT record_id, _score FROM t WHERE tenant_id = 1 AND "
      "MATCH(title, 'novel') ORDER BY _score DESC, record_id LIMIT 15");
}

TEST_F(TwoPhaseTest, UnsortedLimited) {
  // Without ORDER BY any 7 matches are a correct answer.
  const std::string sql = "SELECT * FROM t WHERE tenant_id = 3 LIMIT 7";
  const Query query = Parse(sql);
  auto result = db_->ExecuteSql(sql);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 7u);
  for (const Document& row : result->rows) {
    EXPECT_TRUE(EvalWhereOnDocument(*query.where, row))
        << "record " << row.record_id();
  }
}

TEST_F(TwoPhaseTest, FetchesOnlyTheWinners) {
  // The whole point: a LIMIT-10 query across many matches must
  // materialize ~10 documents, not every match.
  const std::string sql =
      "SELECT * FROM t ORDER BY created_time DESC LIMIT 10";
  auto result = db_->ExecuteSql(sql);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 10u);
  EXPECT_GT(result->total_matched, 100u);
  EXPECT_EQ(db_->last_stats().rows_materialized, 10u);
  ExpectMatchesStoredDocs(sql);
}

TEST_F(TwoPhaseTest, AggregatesFetchNoRows) {
  auto result = db_->ExecuteSql("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->agg_count, 400u);
  EXPECT_TRUE(result->rows.empty());
  EXPECT_EQ(db_->last_stats().rows_materialized, 0u);
}

// Property: random sorted, limited and paged queries.
TEST_F(TwoPhaseTest, RandomQueriesMatchStoredDocs) {
  Rng rng(99);
  const char* sort_cols[] = {"created_time", "record_id", "status"};
  for (int trial = 0; trial < 40; ++trial) {
    std::string sql = "SELECT * FROM t WHERE tenant_id = " +
                      std::to_string(1 + rng.Uniform(4));
    if (rng.Bernoulli(0.5)) {
      sql += " AND status = " + std::to_string(rng.Uniform(3));
    }
    if (rng.Bernoulli(0.4)) {
      sql += " AND created_time >= " + std::to_string(rng.Uniform(800));
    }
    sql += " ORDER BY ";
    sql += sort_cols[rng.Uniform(3)];
    if (rng.Bernoulli(0.5)) sql += " DESC";
    sql += ", record_id";
    sql += " LIMIT " + std::to_string(1 + rng.Uniform(30));
    if (rng.Bernoulli(0.3)) {
      sql += " OFFSET " + std::to_string(rng.Uniform(20));
    }
    ExpectMatchesStoredDocs(sql);
  }
}

}  // namespace
}  // namespace esdb
