// Plan-choice parity fuzzer: for a randomized skewed corpus (several
// frozen segment generations, tombstone overlays from deletes) and a
// randomized query stream spanning the planner's query classes, the
// cost-model-chosen plan must return results identical to every
// forced access path — rules-only, composite index off, scan-list
// off. The cost pass is a physical rewrite; any visible difference is
// a bug.
//
// The seed is printed via SCOPED_TRACE on failure; ESDB_FUZZ_ITERS
// overrides the number of random queries.

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/esdb.h"

namespace esdb {
namespace {

int FuzzIters(int fallback) {
  if (const char* env = std::getenv("ESDB_FUZZ_ITERS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return fallback;
}

// Documents carry only int and string values, never explicit nulls:
// comparison predicates reject nulls while the keyword index stores
// them, so explicit nulls are outside the index<->filter equivalence
// both the rule planner's scan-list deferral and the cost pass assume.
std::unique_ptr<Esdb> BuildCorpus(std::mt19937* rng) {
  Esdb::Options options;
  options.num_shards = 4;
  options.routing = RoutingKind::kHash;
  options.store.refresh_doc_count = 0;
  // A single-column composite on created_time: exercises the
  // whole-index LIMIT/ORDER-BY pushdown (no leading equality).
  options.spec.composite_indexes.push_back({"created_time"});
  auto db = std::make_unique<Esdb>(std::move(options));

  const char* kTitles[] = {"alpha beta", "beta gamma", "delta ray",
                           "alpha delta", "epsilon"};
  std::vector<std::array<int64_t, 3>> routing_keys;  // tenant, record, ctime
  int64_t next_record = 0;
  for (int wave = 0; wave < 3; ++wave) {
    for (int i = 0; i < 200; ++i) {
      const int64_t id = next_record++;
      const uint32_t skew = (*rng)() % 100;
      const int64_t tenant = skew < 60 ? 1 : skew < 80 ? 2 : 3 + skew % 4;
      // Duplicated created_time values: ORDER BY ties exercise the
      // stable-order / superset-of-winners guarantees.
      const int64_t ctime = id / 3;
      Document doc;
      doc.Set(kFieldTenantId, Value(tenant));
      doc.Set(kFieldRecordId, Value(id));
      doc.Set(kFieldCreatedTime, Value(ctime));
      doc.Set("status", Value(int64_t((*rng)() % 5)));
      doc.Set("amount", Value(int64_t((*rng)() % 100)));
      doc.Set("group", Value(int64_t((*rng)() % 10)));
      doc.Set("title", Value(std::string(kTitles[(*rng)() % 5])));
      EXPECT_TRUE(db->Insert(std::move(doc)).ok());
      routing_keys.push_back({tenant, id, ctime});
    }
    db->RefreshAll();
    // Tombstone overlays over the already-frozen segments.
    for (int d = 0; d < 20 && !routing_keys.empty(); ++d) {
      const size_t pick = (*rng)() % routing_keys.size();
      const auto key = routing_keys[pick];
      routing_keys.erase(routing_keys.begin() + ptrdiff_t(pick));
      EXPECT_TRUE(db->Delete(key[0], key[1], key[2]).ok());
    }
    db->RefreshAll();
  }
  return db;
}

std::string RandomQuery(std::mt19937& rng) {
  auto pick = [&](int n) { return int(rng() % uint32_t(n)); };
  std::ostringstream sql;
  switch (pick(6)) {
    case 0: {  // tenant-scoped rows, optional sort + page
      sql << "SELECT * FROM t WHERE tenant_id = " << 1 + pick(6);
      if (pick(2)) sql << " AND status = " << pick(5);
      if (pick(2)) sql << " AND amount >= " << pick(100);
      if (pick(3)) {
        sql << " ORDER BY " << (pick(2) ? "created_time" : "record_id");
        if (pick(2)) sql << " DESC";
      }
      sql << " LIMIT " << 1 + pick(30);
      if (pick(2)) sql << " OFFSET " << pick(10);
      break;
    }
    case 1: {  // cross-shard conjunction (no tenant)
      sql << "SELECT * FROM t WHERE status = " << pick(5)
          << " AND amount BETWEEN " << pick(50) << " AND " << 50 + pick(50)
          << " LIMIT " << 1 + pick(25);
      break;
    }
    case 2: {  // whole-index ORDER BY pushdown
      sql << "SELECT * FROM t";
      if (pick(2)) sql << " WHERE amount >= " << pick(100);
      sql << " ORDER BY created_time";
      if (pick(2)) sql << " DESC";
      sql << " LIMIT " << 1 + pick(20);
      if (pick(2)) sql << " OFFSET " << pick(8);
      break;
    }
    case 3: {  // aggregates: stats-only candidates and not
      const char* kAggs[] = {"COUNT(*)", "MIN(created_time)",
                             "MAX(created_time)", "MIN(amount)",
                             "MAX(amount)", "SUM(amount)", "AVG(amount)"};
      sql << "SELECT " << kAggs[pick(7)] << " FROM t";
      switch (pick(3)) {
        case 0:
          break;
        case 1:
          sql << " WHERE tenant_id = " << 1 + pick(6);
          break;
        case 2:
          sql << " WHERE tenant_id = " << 1 + pick(6)
              << " AND created_time >= " << pick(200);
          break;
      }
      break;
    }
    case 4: {  // GROUP BY
      const char* kAggs[] = {"COUNT(*)", "MIN(amount)", "SUM(amount)"};
      sql << "SELECT group, " << kAggs[pick(3)] << " FROM t";
      if (pick(2)) sql << " WHERE tenant_id = " << 1 + pick(6);
      sql << " GROUP BY group";
      break;
    }
    default: {  // disjunctions and text predicates
      if (pick(2)) {
        sql << "SELECT * FROM t WHERE tenant_id = " << 1 + pick(4)
            << " AND (status = " << pick(5) << " OR group = " << pick(10)
            << ") LIMIT " << 1 + pick(20);
      } else {
        sql << "SELECT * FROM t WHERE title LIKE 'alpha%' AND amount < "
            << 1 + pick(100) << " LIMIT " << 1 + pick(20);
      }
      break;
    }
  }
  return sql.str();
}

void ExpectParity(const QueryResult& costed, const QueryResult& forced,
                  const std::string& label) {
  ASSERT_EQ(costed.rows.size(), forced.rows.size()) << label;
  for (size_t i = 0; i < costed.rows.size(); ++i) {
    ASSERT_EQ(costed.rows[i], forced.rows[i]) << label << " row " << i;
  }
  EXPECT_EQ(costed.agg_count, forced.agg_count) << label;
  EXPECT_EQ(costed.agg_sum, forced.agg_sum) << label;
  ASSERT_EQ(costed.agg_min.has_value(), forced.agg_min.has_value()) << label;
  if (forced.agg_min) {
    EXPECT_EQ(*costed.agg_min, *forced.agg_min) << label;
  }
  ASSERT_EQ(costed.agg_max.has_value(), forced.agg_max.has_value()) << label;
  if (forced.agg_max) {
    EXPECT_EQ(*costed.agg_max, *forced.agg_max) << label;
  }
  ASSERT_EQ(costed.groups.size(), forced.groups.size()) << label;
  auto it = costed.groups.begin();
  for (const auto& [key, stats] : forced.groups) {
    ASSERT_TRUE(it->first == key) << label;
    EXPECT_EQ(it->second.count, stats.count) << label;
    EXPECT_EQ(it->second.sum, stats.sum) << label;
    ASSERT_EQ(it->second.min.has_value(), stats.min.has_value()) << label;
    ASSERT_EQ(it->second.max.has_value(), stats.max.has_value()) << label;
    if (stats.min) {
      EXPECT_EQ(*it->second.min, *stats.min) << label;
    }
    if (stats.max) {
      EXPECT_EQ(*it->second.max, *stats.max) << label;
    }
    ++it;
  }
  // An early-terminating plan may undercount, but never overcount,
  // and must say it stopped early.
  if (costed.total_matched_exact && forced.total_matched_exact) {
    EXPECT_EQ(costed.total_matched, forced.total_matched) << label;
  } else {
    EXPECT_LE(costed.total_matched, forced.total_matched) << label;
  }
}

TEST(PlanParityFuzz, CostedPlanMatchesEveryForcedPath) {
  const uint32_t seed = 20260808;
  std::mt19937 rng(seed);
  auto db = BuildCorpus(&rng);

  PlannerOptions costed;  // composite + scan-list + cost model
  PlannerOptions rules_only = costed;
  rules_only.use_cost_model = false;
  PlannerOptions no_composite = rules_only;
  no_composite.use_composite_index = false;
  PlannerOptions no_scan_list = rules_only;
  no_scan_list.use_scan_list = false;
  const struct {
    const char* name;
    const PlannerOptions* options;
  } kForced[] = {{"rules-only", &rules_only},
                 {"no-composite", &no_composite},
                 {"no-scan-list", &no_scan_list}};

  const int iters = FuzzIters(120);
  for (int i = 0; i < iters; ++i) {
    const std::string sql = RandomQuery(rng);
    SCOPED_TRACE("seed=" + std::to_string(seed) + " iter=" +
                 std::to_string(i) + " sql=" + sql);
    auto reference = db->ExecuteSqlWithPlanner(sql, costed);
    ASSERT_TRUE(reference.ok()) << reference.status().message();
    for (const auto& forced : kForced) {
      auto result = db->ExecuteSqlWithPlanner(sql, *forced.options);
      ASSERT_TRUE(result.ok()) << result.status().message();
      ExpectParity(*reference, *result, forced.name);
    }
  }
}

}  // namespace
}  // namespace esdb
