// Figure 16: query throughput (QPS) of the top-2000 tenants under the
// three routing policies, on the REAL engine (documents indexed, SQL
// parsed/optimized/executed). Paper shape: double hashing pays an 8x
// subquery fan-out and lands far below the other two; dynamic
// secondary hashing matches hashing for small tenants (single-shard
// reads, up to +63% over double hashing) and stays competitive for
// large tenants because their per-shard slices are smaller.
//
// Scale note: the paper loads 40M docs over 512 shards / 100K tenants;
// this bench loads a laptop-scale 120K docs over 64 shards / 10K
// tenants — fan-out counts and relative ordering are preserved.
//
// Usage:
//   bench_fig16_query_qps [--threads=0,2,4,8] [--skip-figure]
//
// --threads runs the parallel fan-out sweep (Section 3.2's concurrent
// subquery execution): broadcast queries (no tenant predicate, all 64
// shards) are executed with each listed query_threads setting; 0 is
// the serial baseline. The sweep reports QPS, speedup over serial,
// and verifies that every configuration returns byte-identical rows.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cluster/esdb.h"
#include "workload/generator.h"

using namespace esdb;  // NOLINT

namespace {

constexpr uint32_t kShards = 64;
constexpr uint64_t kTenants = 10000;
constexpr int kDocs = 120000;
constexpr int kQueriesPerRank = 20;

std::unique_ptr<Esdb> BuildCluster(RoutingKind routing) {
  Esdb::Options options;
  options.num_shards = kShards;
  options.routing = routing;
  options.double_hash_offset = 8;
  options.store.refresh_doc_count = 8192;
  options.balancer.target_share_per_shard = 0.002;
  options.balancer.max_offset = 8;
  auto db = std::make_unique<Esdb>(std::move(options));

  WorkloadGenerator::Options wopts;
  wopts.num_tenants = kTenants;
  wopts.theta = 1.0;
  wopts.seed = 161616;
  WorkloadGenerator generator(wopts);
  for (int i = 0; i < kDocs; ++i) {
    const Status s =
        db->Insert(generator.NextDocument(Micros(i) * kMicrosPerMilli));
    if (!s.ok()) {
      std::fprintf(stderr, "insert failed: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  }
  db->RefreshAll();
  // Dynamic secondary hashing's initialization phase: offsets from
  // current storage proportions (Algorithm 1 lines 5-10).
  if (routing == RoutingKind::kDynamic) {
    db->InitializeRulesFromStorage(/*effective_time=*/0);
  }
  return db;
}

void RunFigure() {
  std::printf("%-28s %-8s %-10s %-12s %-10s\n", "policy", "rank", "qps",
              "subqueries", "rows");

  const uint64_t kRanks[] = {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000};
  for (RoutingKind policy : bench::kAllPolicies) {
    std::unique_ptr<Esdb> db = BuildCluster(policy);
    QueryGenerator::Options qopts;
    qopts.time_window = Micros(kDocs) * kMicrosPerMilli;
    QueryGenerator queries(qopts);

    for (uint64_t rank : kRanks) {
      const TenantId tenant = TenantId(rank);  // rank r -> tenant id r
      double total_seconds = 0;
      uint64_t rows = 0, subqueries = 0;
      for (int q = 0; q < kQueriesPerRank; ++q) {
        const std::string sql =
            queries.NextSql(tenant, Micros(kDocs) * kMicrosPerMilli);
        bench::Stopwatch watch;
        auto result = db->ExecuteSql(sql);
        total_seconds += watch.ElapsedSeconds();
        if (!result.ok()) {
          std::fprintf(stderr, "query failed: %s\n",
                       result.status().ToString().c_str());
          std::exit(1);
        }
        rows += result->rows.size();
        subqueries = db->last_subqueries();
      }
      std::printf("%-28s %-8llu %-10.0f %-12llu %-10llu\n",
                  bench::PolicyName(policy),
                  static_cast<unsigned long long>(rank),
                  double(kQueriesPerRank) / total_seconds,
                  static_cast<unsigned long long>(subqueries),
                  static_cast<unsigned long long>(rows / kQueriesPerRank));
    }
  }
}

// Broadcast query stream: no tenant_id predicate, so every query fans
// out to all kShards shards — the worst-case coordinator load the
// parallel fan-out targets.
std::vector<std::string> BroadcastQueries() {
  std::vector<std::string> sqls;
  for (int rep = 0; rep < 8; ++rep) {
    sqls.push_back("SELECT * FROM transaction_logs WHERE amount >= " +
                   std::to_string(350 + rep * 10) +
                   " AND status = 2 ORDER BY created_time DESC LIMIT 100");
    sqls.push_back("SELECT * FROM transaction_logs WHERE quantity <= 2 "
                   "AND channel = " +
                   std::to_string(rep % 8) +
                   " ORDER BY amount DESC LIMIT 50");
    sqls.push_back(
        "SELECT COUNT(*) FROM transaction_logs WHERE status = " +
        std::to_string(rep % 5) + " AND flag = 1");
  }
  return sqls;
}

void RunThreadSweep(const std::vector<uint32_t>& thread_counts) {
  bench::PrintHeader(
      "Parallel fan-out sweep: broadcast queries, 64 shards");
  std::unique_ptr<Esdb> db = BuildCluster(RoutingKind::kHash);
  const std::vector<std::string> sqls = BroadcastQueries();

  // Warm the filter cache first so the serial-vs-parallel comparison
  // measures fan-out parallelism, not cold-vs-warm cache effects.
  db->SetQueryThreads(0);
  for (const std::string& sql : sqls) (void)db->ExecuteSql(sql);

  // Serial baseline results, kept for the byte-identical check.
  std::vector<QueryResult> baseline;
  baseline.reserve(sqls.size());
  double serial_seconds = 0;
  {
    bench::Stopwatch watch;
    for (const std::string& sql : sqls) {
      auto result = db->ExecuteSql(sql);
      if (!result.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     result.status().ToString().c_str());
        std::exit(1);
      }
      baseline.push_back(std::move(*result));
    }
    serial_seconds = watch.ElapsedSeconds();
  }

  std::printf("%-10s %-10s %-10s %-12s\n", "threads", "qps", "speedup",
              "identical");
  std::printf("%-10s %-10.0f %-10s %-12s\n", "0 (serial)",
              double(sqls.size()) / serial_seconds, "1.00x", "baseline");

  for (uint32_t threads : thread_counts) {
    if (threads == 0) continue;  // serial already measured
    db->SetQueryThreads(threads);
    bool identical = true;
    bench::Stopwatch watch;
    for (size_t i = 0; i < sqls.size(); ++i) {
      auto result = db->ExecuteSql(sqls[i]);
      if (!result.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     result.status().ToString().c_str());
        std::exit(1);
      }
      const QueryResult& expect = baseline[i];
      if (result->rows != expect.rows ||
          result->total_matched != expect.total_matched ||
          result->agg_count != expect.agg_count) {
        identical = false;
      }
    }
    const double seconds = watch.ElapsedSeconds();
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx",
                  serial_seconds / seconds);
    std::printf("%-10u %-10.0f %-10s %-12s\n", threads,
                double(sqls.size()) / seconds, speedup,
                identical ? "yes" : "NO (BUG)");
    if (!identical) std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<uint32_t> thread_counts = {0, 2, 4, 8};
  bool skip_figure = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      thread_counts.clear();
      const char* p = argv[i] + 10;
      while (*p != '\0') {
        thread_counts.push_back(uint32_t(std::strtoul(p, nullptr, 10)));
        const char* comma = std::strchr(p, ',');
        if (comma == nullptr) break;
        p = comma + 1;
      }
    } else if (std::strcmp(argv[i], "--skip-figure") == 0) {
      skip_figure = true;
    }
  }

  bench::PrintHeader("Figure 16: query QPS of ranked tenants (real engine)");
  if (!skip_figure) RunFigure();
  RunThreadSweep(thread_counts);
  return 0;
}
