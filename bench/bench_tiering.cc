// Tiered-storage memory-footprint and latency bench: how many
// long-tail tenants fit in a GB of RAM once idle shards demote to the
// compressed cold tier, and what cold queries pay for it.
//
// Two identical engines get the same deterministic Zipf preload. One
// stays hot; the other runs tiering cycles until every shard is cold
// (spilled to disk). Reported:
//   * resident bytes hot vs cold (cold includes the block cache's
//     charged bytes — promoted blocks are RAM too) and the derived
//     tenants-per-GB multiplier (target >= 5x),
//   * per-tenant query latency hot, cold-first-touch (pays block
//     promotion) and cold-warm (cache hit; target < 2x hot). The
//     latency sweeps time the tenant-scoped probes only: that is the
//     experience a long-tail tenant sees, and its working set (the
//     few shards hosting the probed tenants) is what the block cache
//     is sized for. The broadcast count — which by construction
//     touches every shard's index and therefore streams the whole
//     tier through the cache — participates in the identity gates
//     and in the first-touch sweep, not in the warm measurement,
//   * hot-path QPS before and after enabling the tiering option with
//     every shard classified hot (target: unchanged).
//
// Correctness gates (the only thing that affects the exit code, in
// --quick and full mode alike):
//   * identity: every probe query answers byte-identically on the
//     hot engine and the cold engine;
//   * accounting: each breakdown's components sum to total(), the
//     cold engine's cold_bytes are nonzero, resident shrank, and
//     the cold files on disk match cold_bytes.
// Performance targets are enforced only in full runs (--quick is the
// CI smoke: correctness on a small preload, not throughput).
//
// Usage: bench_tiering [--quick]
// Results additionally land in BENCH_tiering.json.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "cluster/esdb.h"
#include "common/random.h"
#include "storage/block_cache.h"
#include "workload/generator.h"

using namespace esdb;  // NOLINT

namespace {

namespace fs = std::filesystem;

constexpr uint64_t kSeed = 20220611;

struct BenchConfig {
  bool quick = false;
  uint32_t shards = 128;
  uint64_t tenants = 2000;
  int preload_docs = 120000;
  int probe_tenants = 16;
  int latency_rounds = 5;
};

double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Esdb::Options EngineOptions(const BenchConfig& cfg, bool tiered,
                            const std::string& spill_dir) {
  Esdb::Options options;
  options.num_shards = cfg.shards;
  options.routing = RoutingKind::kHash;
  options.store.refresh_doc_count = 0;
  options.store.merge.max_segments = 4;
  if (tiered) {
    options.tiering.enabled = true;
    options.tiering.spill_dir = spill_dir;
    // Sized for the active tenants' working set, deliberately far
    // below the hot tier's resident bytes: the footprint win must
    // come from the tier, not from a cache re-inflating everything.
    options.tiering.block_cache_bytes = (16u << 20);
    options.tiering.admission.cold_threshold = 1;  // idle == cold
  }
  return options;
}

WorkloadGenerator::Options GeneratorOptions(const BenchConfig& cfg) {
  WorkloadGenerator::Options options;
  options.num_tenants = cfg.tenants;
  options.theta = 0.8;  // long tail: most tenants small, none empty
  options.seed = kSeed;
  return options;
}

void Preload(Esdb* db, const BenchConfig& cfg) {
  WorkloadGenerator generator(GeneratorOptions(cfg));
  for (int i = 0; i < cfg.preload_docs; ++i) {
    const Status s =
        db->Insert(generator.NextDocument(Micros(i) * kMicrosPerMilli));
    if (!s.ok()) {
      std::fprintf(stderr, "preload insert failed at %d: %s\n", i,
                   s.ToString().c_str());
      std::exit(1);
    }
  }
  db->RefreshAll();
}

std::vector<std::string> ProbeQueries(const BenchConfig& cfg) {
  // Mix of tenant-scoped rows, aggregates and a broadcast count —
  // postings, composite scans, doc values and stored-doc fetches all
  // exercised against the cold tier. The broadcast count is LAST:
  // latency sweeps drop it (see the header comment) while identity
  // runs keep it.
  std::vector<std::string> queries;
  Rng rng(kSeed ^ 0x9e37);
  for (int i = 0; i < cfg.probe_tenants; ++i) {
    const uint64_t tenant = 1 + rng.Uniform(cfg.tenants);
    queries.push_back("SELECT * FROM t WHERE tenant_id = " +
                      std::to_string(tenant) +
                      " ORDER BY created_time DESC LIMIT 10");
    queries.push_back("SELECT COUNT(*) FROM t WHERE tenant_id = " +
                      std::to_string(tenant));
  }
  queries.push_back("SELECT COUNT(*) FROM t");
  return queries;
}

std::string ResultFingerprint(const QueryResult& result) {
  std::string out;
  out += "matched=" + std::to_string(result.total_matched);
  out += " count=" + std::to_string(result.agg_count);
  for (const Document& doc : result.rows) {
    out += '|';
    out += doc.Serialize();
  }
  return out;
}

// Runs every probe once; returns fingerprints and the elapsed wall
// time. Exits on query error (a cold shard must never break a query).
std::vector<std::string> RunProbes(Esdb* db,
                                   const std::vector<std::string>& queries,
                                   double* elapsed_sec) {
  std::vector<std::string> prints;
  prints.reserve(queries.size());
  const double start = NowSec();
  for (const std::string& sql : queries) {
    auto result = db->ExecuteSql(sql);
    if (!result.ok()) {
      std::fprintf(stderr, "query failed: %s -> %s\n", sql.c_str(),
                   result.status().ToString().c_str());
      std::exit(1);
    }
    prints.push_back(ResultFingerprint(*result));
  }
  if (elapsed_sec != nullptr) *elapsed_sec = NowSec() - start;
  return prints;
}

// Median of `rounds` timed probe sweeps.
double ProbeLatencySec(Esdb* db, const std::vector<std::string>& queries,
                       int rounds) {
  std::vector<double> times;
  for (int i = 0; i < rounds; ++i) {
    double t = 0;
    RunProbes(db, queries, &t);
    times.push_back(t);
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

int gate_failures = 0;

void Gate(bool ok, const char* what) {
  std::printf("  gate %-44s %s\n", what, ok ? "PASS" : "FAIL");
  if (!ok) ++gate_failures;
}

size_t DirBytes(const fs::path& dir) {
  size_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) cfg.quick = true;
  }
  if (cfg.quick) {
    cfg.shards = 8;
    cfg.tenants = 200;
    cfg.preload_docs = 6000;
    cfg.probe_tenants = 8;
    cfg.latency_rounds = 3;
  }

  const fs::path spill_dir =
      fs::temp_directory_path() /
      ("esdb_bench_tiering_" + std::to_string(uint64_t(::getpid())));
  fs::create_directories(spill_dir);

  std::printf("bench_tiering: %u shards, %llu tenants, %d docs%s\n",
              cfg.shards, (unsigned long long)cfg.tenants, cfg.preload_docs,
              cfg.quick ? " (quick)" : "");

  // --- Hot baseline ---------------------------------------------------
  Esdb hot(EngineOptions(cfg, /*tiered=*/false, ""));
  Preload(&hot, cfg);
  const std::vector<std::string> probes = ProbeQueries(cfg);
  // Tenant-scoped subset for the latency sweeps (everything but the
  // trailing broadcast count).
  const std::vector<std::string> tenant_probes(probes.begin(),
                                               probes.end() - 1);
  const std::vector<std::string> hot_prints = RunProbes(&hot, probes, nullptr);
  const double hot_latency =
      ProbeLatencySec(&hot, tenant_probes, cfg.latency_rounds);
  const ShardSizeBreakdown hot_size = hot.SizeBreakdownTotal();

  // --- Tiered engine, everything classified hot: QPS must not move ---
  Esdb tiered(EngineOptions(cfg, /*tiered=*/true, spill_dir.string()));
  Preload(&tiered, cfg);
  // Activity from the preload keeps every shard hot through a cycle.
  tiered.RunTieringCycle();
  const double tiered_hot_latency =
      ProbeLatencySec(&tiered, tenant_probes, cfg.latency_rounds);

  // --- Demote everything ----------------------------------------------
  size_t num_cold = 0;
  for (int cycle = 0; cycle < 64 && num_cold < cfg.shards; ++cycle) {
    num_cold = tiered.RunTieringCycle();
  }
  const ShardSizeBreakdown cold_size = tiered.SizeBreakdownTotal();
  const size_t disk_bytes = DirBytes(spill_dir);

  // The first full probe sweep (broadcast included) pays block
  // promotion for every shard it touches; the warm sweeps then time
  // the tenant-scoped working set against a populated cache.
  double cold_first_latency = 0;
  const std::vector<std::string> cold_prints =
      RunProbes(&tiered, probes, &cold_first_latency);
  const double cold_warm_latency =
      ProbeLatencySec(&tiered, tenant_probes, cfg.latency_rounds);
  const BlockCache::Stats cache_stats = tiered.block_cache()->stats();

  // --- Gates ------------------------------------------------------------
  std::printf("gates:\n");
  Gate(hot_prints == cold_prints, "hot/cold query identity");
  Gate(hot_size.total() ==
           hot_size.resident_bytes + hot_size.translog_bytes +
               hot_size.cold_bytes,
       "hot breakdown components sum to total");
  Gate(cold_size.total() ==
           cold_size.resident_bytes + cold_size.translog_bytes +
               cold_size.cold_bytes,
       "cold breakdown components sum to total");
  Gate(hot_size.cold_bytes == 0, "hot engine has no cold bytes");
  Gate(num_cold == cfg.shards, "every shard demoted");
  Gate(cold_size.cold_bytes > 0 && disk_bytes >= cold_size.cold_bytes,
       "cold bytes live on disk");
  Gate(cold_size.resident_bytes < hot_size.resident_bytes,
       "demotion shrank resident bytes");

  // RAM the cold configuration actually needs: shard-resident bytes
  // plus whatever the cache currently pins.
  const size_t cold_ram = cold_size.resident_bytes + cache_stats.charged_bytes;
  const double footprint_ratio =
      cold_ram > 0 ? double(hot_size.resident_bytes) / double(cold_ram) : 0;
  const double latency_ratio =
      hot_latency > 0 ? cold_warm_latency / hot_latency : 0;
  const double hot_qps_ratio =
      tiered_hot_latency > 0 ? hot_latency / tiered_hot_latency : 0;
  if (!cfg.quick) {
    Gate(footprint_ratio >= 5.0, "tenants/GB multiplier >= 5x");
    Gate(latency_ratio < 2.0, "warm cold-query latency < 2x hot");
    Gate(hot_qps_ratio > 0.8, "hot QPS unchanged under tiering");
  }

  std::printf("\nresults:\n");
  std::printf("  resident hot            %12zu bytes\n",
              hot_size.resident_bytes);
  std::printf("  resident cold (+cache)  %12zu bytes (%zu + %zu)\n", cold_ram,
              cold_size.resident_bytes, cache_stats.charged_bytes);
  std::printf("  cold on disk            %12zu bytes (compressed)\n",
              cold_size.cold_bytes);
  std::printf("  footprint multiplier    %12.2fx (target >= 5x)\n",
              footprint_ratio);
  std::printf("  probe sweep hot         %12.3f ms\n", hot_latency * 1e3);
  std::printf("  probe sweep cold first  %12.3f ms\n",
              cold_first_latency * 1e3);
  std::printf("  probe sweep cold warm   %12.3f ms (%.2fx hot, target < 2x)\n",
              cold_warm_latency * 1e3, latency_ratio);
  std::printf("  hot sweep under tiering %12.3f ms (ratio %.2f)\n",
              tiered_hot_latency * 1e3, hot_qps_ratio);
  std::printf("  block cache             %llu hits, %llu misses, %zu entries\n",
              (unsigned long long)cache_stats.hits,
              (unsigned long long)cache_stats.misses, cache_stats.entries);

  FILE* json = std::fopen("BENCH_tiering.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n"
                 "  \"quick\": %s,\n"
                 "  \"shards\": %u,\n"
                 "  \"tenants\": %llu,\n"
                 "  \"preload_docs\": %d,\n"
                 "  \"resident_hot_bytes\": %zu,\n"
                 "  \"resident_cold_bytes\": %zu,\n"
                 "  \"cache_charged_bytes\": %zu,\n"
                 "  \"cold_disk_bytes\": %zu,\n"
                 "  \"footprint_ratio\": %.3f,\n"
                 "  \"hot_sweep_sec\": %.6f,\n"
                 "  \"cold_first_sweep_sec\": %.6f,\n"
                 "  \"cold_warm_sweep_sec\": %.6f,\n"
                 "  \"cold_warm_latency_ratio\": %.3f,\n"
                 "  \"hot_sweep_tiered_sec\": %.6f,\n"
                 "  \"gate_failures\": %d\n"
                 "}\n",
                 cfg.quick ? "true" : "false", cfg.shards,
                 (unsigned long long)cfg.tenants, cfg.preload_docs,
                 hot_size.resident_bytes, cold_size.resident_bytes,
                 cache_stats.charged_bytes, cold_size.cold_bytes,
                 footprint_ratio, hot_latency, cold_first_latency,
                 cold_warm_latency, latency_ratio, tiered_hot_latency,
                 gate_failures);
    std::fclose(json);
  }

  std::error_code ec;
  fs::remove_all(spill_dir, ec);
  if (gate_failures > 0) {
    std::fprintf(stderr, "\n%d gate(s) FAILED\n", gate_failures);
    return 1;
  }
  std::printf("\nall gates passed\n");
  return 0;
}
