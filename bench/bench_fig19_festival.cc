// Figure 19: maximum write delay and average query latency around the
// kickoff of the Single's Day festival (production trace shape) —
// grown into the live-migration scenario bench. The workload spikes
// dramatically at t=0 and lands on fresh hotspots; ten seconds in, a
// worker node dies (festival ops worst case). ESDB's monitor commits
// new secondary-hashing rules AND the shard-heat balancer migrates
// hot shards off the overloaded survivors (DESIGN.md §13), so the
// kickoff backlog drains within minutes (paper: < 7 min) and the tail
// write delay stays bounded.
//
// Gates (exit 1 on failure — mechanism checks, never raw timing):
//   identity       the real engine (a multi-node Esdb) produces
//                  bit-identical query results with live migrations
//                  running vs a migration-free twin fed the same ops
//   determinism    the sim scenario reproduces exactly under its seed
//   migrations     the scenario actually exercises cutover (> 0
//                  completed migrations)
//   tail_p99       p99 write delay in the post-recovery tail window
//                  is bounded (virtual-time, deterministic)
//   recovery       the kickoff backlog drains within the run
//
// Usage: bench_fig19_festival [--quick]
// Results additionally land in BENCH_fig19_festival.json.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cluster/esdb.h"

using namespace esdb;  // NOLINT

namespace {

struct BenchConfig {
  bool quick = false;
  // Sim phases (virtual seconds).
  long steady_s = 60;
  long spike_s = 10;
  long sustain_s = 230;
  long tail_s = 60;  // post-recovery measurement window
  // Engine identity phase.
  int engine_ops = 40000;
};

struct ScenarioResult {
  ClusterSim::Metrics metrics;       // full run (steady..sustain)
  ClusterSim::Metrics tail_metrics;  // tail window only
  double recovered_at_s = -1;
  uint64_t migrations_started = 0;
  uint64_t migrations_completed = 0;
  uint64_t migrations_aborted = 0;
  size_t queue_entries = 0;
  std::vector<ClusterSim::Sample> timeline;
};

int gate_failures = 0;
void Gate(bool ok, const char* what) {
  std::printf("  gate %-46s %s\n", what, ok ? "PASS" : "FAIL");
  if (!ok) ++gate_failures;
}

ClusterSim::Options ScenarioOptions() {
  ClusterSim::Options options = bench::PaperSimOptions(RoutingKind::kDynamic);
  options.replication = ReplicationMode::kPhysical;  // ESDB configuration
  options.sample_period = 10 * kMicrosPerSecond;
  options.migration.enabled = true;
  options.migration.check_interval = kMicrosPerSecond;
  options.migration.min_node_score = 1000;
  options.migration.max_concurrent = 8;
  return options;
}

// The festival scenario: steady -> midnight spike on fresh hotspots
// -> node loss -> sustained festival traffic -> (recovery) -> tail
// measurement window.
ScenarioResult RunScenario(const BenchConfig& cfg) {
  ScenarioResult result;
  ClusterSim sim(ScenarioOptions());

  // Pre-festival steady state (23:50-00:00): modest traffic.
  sim.SetRate(40000);
  sim.Run(cfg.steady_s * kMicrosPerSecond);
  // Midnight: the first seconds' burst far exceeds cluster capacity
  // and lands on fresh hotspots (promotion SKUs).
  sim.ShiftHotspots(50000);
  sim.SetRate(400000);
  sim.Run(cfg.spike_s * kMicrosPerSecond);
  // Festival ops worst case: a worker dies at the height of the
  // spike. Its primaries fail over; the survivors are now imbalanced,
  // which is what the heat-driven migrations repair.
  (void)sim.FailNode(2);
  // Sustained festival traffic under the (reduced) balanced ceiling
  // (7 nodes x 42500 / 1.55 ~ 192K units): enough headroom that the
  // spike backlog drains once rules + migrations re-spread the load.
  sim.SetRate(130000);
  sim.Run(cfg.sustain_s * kMicrosPerSecond);

  result.metrics = sim.metrics();
  result.timeline = sim.metrics().timeline;
  bool spiked = false;
  for (const ClusterSim::Sample& s : result.timeline) {
    if (s.time < cfg.steady_s * kMicrosPerSecond) continue;
    if (s.max_delay > 5.0) spiked = true;
    if (spiked && s.backlog < 10000 && result.recovered_at_s < 0) {
      result.recovered_at_s =
          double(s.time) / kMicrosPerSecond - double(cfg.steady_s);
    }
  }

  // Post-recovery tail: fresh metrics window at sustained load.
  sim.ResetMetrics();
  sim.Run(cfg.tail_s * kMicrosPerSecond);
  result.tail_metrics = sim.metrics();
  result.migrations_started = sim.migrations_started();
  result.migrations_completed = sim.migrations_completed();
  result.migrations_aborted = sim.migrations_aborted();
  result.queue_entries = sim.queue_entries();
  return result;
}

Document MakeLog(int64_t tenant, int64_t record, int64_t time,
                 int64_t status) {
  Document doc;
  doc.Set(kFieldTenantId, Value(tenant));
  doc.Set(kFieldRecordId, Value(record));
  doc.Set(kFieldCreatedTime, Value(time));
  doc.Set("status", Value(status));
  return doc;
}

// Engine-level identity: feed two real multi-node Esdb clusters the
// same acknowledged op stream; one migrates continuously (balancer
// cycles + forced moves), the other never does. Every query class
// must return identical results — migration may move data, never
// change it.
bool EngineIdentity(const BenchConfig& cfg, uint64_t* cutovers) {
  Esdb::Options options;
  options.num_shards = 16;
  options.routing = RoutingKind::kDynamic;
  options.store.refresh_doc_count = 0;
  options.with_replicas = true;
  Esdb migrating(options);
  Esdb still(options);
  for (NodeId node = 1; node <= 4; ++node) {
    if (!migrating.AddNode(node).ok()) return false;
    if (!still.AddNode(node).ok()) return false;
  }

  *cutovers = 0;
  const int ops = cfg.engine_ops;
  for (int i = 0; i < ops; ++i) {
    // Festival shape: tenant 7 is the promotion hotspot (~60% of
    // traffic), the rest spread over a modest tenant set.
    const bool hot = (i % 5) < 3;
    const int64_t tenant = hot ? 7 : 1 + i % 40;
    const int64_t record = i % (ops / 4);  // updates revisit records
    WriteOp op;
    op.type = (i % 17 == 16) ? OpType::kDelete
              : (i >= ops / 4) ? OpType::kUpdate
                               : OpType::kInsert;
    op.doc = MakeLog(tenant, record, record, i % 9);
    if (!migrating.Apply(op).ok()) return false;
    if (!still.Apply(op).ok()) return false;

    if (i % 2000 == 1999) {
      migrating.RefreshAll();
      still.RefreshAll();
      (void)migrating.MaybeMigrate();
      *cutovers += migrating.DriveMigrations();
    }
  }
  migrating.RefreshAll();
  still.RefreshAll();
  if (migrating.TotalDocs() != still.TotalDocs()) return false;

  std::vector<std::string> queries;
  queries.push_back("SELECT COUNT(*) FROM t WHERE created_time >= 0");
  for (int64_t tenant = 1; tenant <= 40; ++tenant) {
    queries.push_back("SELECT COUNT(*) FROM t WHERE tenant_id = " +
                      std::to_string(tenant));
  }
  for (int64_t status = 0; status < 9; ++status) {
    queries.push_back("SELECT COUNT(*) FROM t WHERE status = " +
                      std::to_string(status));
  }
  queries.push_back("SELECT MIN(created_time) FROM t WHERE tenant_id = 7");
  queries.push_back("SELECT MAX(created_time) FROM t WHERE tenant_id = 7");
  // A GROUP BY and a two-phase row query (row refs merged across the
  // hot tenant's shards, winners fetched) over the migrated shards.
  queries.push_back("SELECT status, COUNT(*) FROM t GROUP BY status");
  queries.push_back(
      "SELECT * FROM t WHERE tenant_id = 7 ORDER BY record_id DESC LIMIT 20");
  for (const std::string& sql : queries) {
    auto a = migrating.ExecuteSql(sql);
    auto b = still.ExecuteSql(sql);
    if (!a.ok() || !b.ok()) return false;
    if (a->agg_count != b->agg_count) return false;
    if (a->agg_min.has_value() != b->agg_min.has_value()) return false;
    if (a->agg_max.has_value() != b->agg_max.has_value()) return false;
    if (a->agg_min && !(*a->agg_min == *b->agg_min)) return false;
    if (a->agg_max && !(*a->agg_max == *b->agg_max)) return false;
    if (!(a->rows == b->rows)) return false;
    if (a->groups.size() != b->groups.size()) return false;
    for (auto ia = a->groups.begin(), ib = b->groups.begin();
         ia != a->groups.end(); ++ia, ++ib) {
      if (!(ia->first == ib->first) || ia->second.count != ib->second.count) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) cfg.quick = true;
  }
  if (cfg.quick) {
    cfg.steady_s = 10;
    cfg.spike_s = 4;
    cfg.sustain_s = 60;
    cfg.tail_s = 15;
    cfg.engine_ops = 8000;
  }

  bench::PrintHeader(
      "Figure 19: festival kickoff + node loss — write delay, migration");

  const ScenarioResult run = RunScenario(cfg);
  std::printf("%-10s %-18s %-22s %-10s\n", "time_s", "max_write_delay_s",
              "avg_query_latency_ms", "cpu");
  for (const ClusterSim::Sample& s : run.timeline) {
    // Query latency modeled from node utilization (queries contend
    // with indexing for the same CPUs): 20 + 150 * cpu^2 reproduces
    // the paper's 30->164 ms swing.
    const double query_ms = 20.0 + 150.0 * s.cpu * s.cpu;
    std::printf("%-10lld %-18.1f %-22.0f %-10.2f\n",
                static_cast<long long>(s.time / kMicrosPerSecond) -
                    cfg.steady_s,
                s.max_delay, query_ms, s.cpu);
  }
  std::printf("(t=0 kickoff: %lds burst at 400K TPS, node 2 fails, then "
              "130K sustained)\n", cfg.spike_s);

  const double p99 = run.metrics.delay.Quantile(0.99);
  const double tail_p99 = run.tail_metrics.delay.Quantile(0.99);
  if (run.recovered_at_s >= 0) {
    std::printf("write delays fully eliminated %.0f s after kickoff "
                "(paper: < 7 min)\n", run.recovered_at_s);
  } else {
    std::printf("WARNING: backlog not drained within the run\n");
  }
  std::printf("p99 write delay: full run %.2f s, post-recovery tail %.3f s\n",
              p99, tail_p99);
  std::printf("migrations: %llu started, %llu completed, %llu aborted\n",
              (unsigned long long)run.migrations_started,
              (unsigned long long)run.migrations_completed,
              (unsigned long long)run.migrations_aborted);

  // Same seed, same script => identical run (the sim contract the
  // scenario suite leans on, re-checked here where FailNode and the
  // migration loop are all active).
  const ScenarioResult rerun = RunScenario(cfg);
  const bool deterministic =
      run.metrics.generated == rerun.metrics.generated &&
      run.metrics.completed == rerun.metrics.completed &&
      run.metrics.node_completed == rerun.metrics.node_completed &&
      run.migrations_started == rerun.migrations_started &&
      run.migrations_completed == rerun.migrations_completed &&
      run.migrations_aborted == rerun.migrations_aborted &&
      run.queue_entries == rerun.queue_entries;

  uint64_t engine_cutovers = 0;
  const bool identity = EngineIdentity(cfg, &engine_cutovers);
  std::printf("engine identity twin: %llu live cutovers during ingest\n",
              (unsigned long long)engine_cutovers);

  std::printf("\n");
  Gate(identity, "engine results identical with live migration");
  Gate(engine_cutovers > 0, "engine scenario performed cutovers");
  Gate(deterministic, "sim scenario deterministic under its seed");
  Gate(run.migrations_completed > 0, "sim migrations completed");
  Gate(run.recovered_at_s >= 0, "kickoff backlog drained");
  Gate(tail_p99 < 2.0, "tail p99 write delay bounded (< 2 s)");

  FILE* json = std::fopen("BENCH_fig19_festival.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"quick\": %s,\n", cfg.quick ? "true" : "false");
    std::fprintf(json, "  \"generated\": %llu,\n",
                 (unsigned long long)run.metrics.generated);
    std::fprintf(json, "  \"completed\": %llu,\n",
                 (unsigned long long)run.metrics.completed);
    std::fprintf(json, "  \"p99_write_delay_s\": %.4f,\n", p99);
    std::fprintf(json, "  \"tail_p99_write_delay_s\": %.4f,\n", tail_p99);
    std::fprintf(json, "  \"recovered_at_s\": %.1f,\n", run.recovered_at_s);
    std::fprintf(json, "  \"migrations_started\": %llu,\n",
                 (unsigned long long)run.migrations_started);
    std::fprintf(json, "  \"migrations_completed\": %llu,\n",
                 (unsigned long long)run.migrations_completed);
    std::fprintf(json, "  \"migrations_aborted\": %llu,\n",
                 (unsigned long long)run.migrations_aborted);
    std::fprintf(json, "  \"engine_cutovers\": %llu,\n",
                 (unsigned long long)engine_cutovers);
    std::fprintf(json, "  \"node_rows\": [");
    for (size_t i = 0; i < run.metrics.node_completed.size(); ++i) {
      std::fprintf(json, "%s%llu", i > 0 ? ", " : "",
                   (unsigned long long)run.metrics.node_completed[i]);
    }
    std::fprintf(json, "],\n");
    std::fprintf(json, "  \"gate_failures\": %d\n}\n", gate_failures);
    std::fclose(json);
  }

  if (gate_failures > 0) {
    std::printf("\n%d gate(s) FAILED\n", gate_failures);
    return 1;
  }
  std::printf("\nall gates passed\n");
  return 0;
}
