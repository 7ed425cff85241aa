// End-to-end benchmark of the in-process ESDB front end
// (src/cluster/esdb.h). One process drives one workload:
//
//   perfbench --workload {ingest,query} --seed N --seconds S
//             --trace {0,1}
//
// --trace 0 reports the end-to-end metrics; --trace 1 replays the same
// seed through the benchmark's own timed calls into each layer and
// reports per-layer metrics. The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The exit code
// is non-zero when any correctness gate or determinism check fails.
// README.md in this directory describes every workload and metric.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/esdb.h"
#include "document/json.h"
#include "query/cost.h"
#include "query/normalize.h"
#include "query/optimizer.h"
#include "query/parser.h"
#include "stats.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

using esdb::Document;
using esdb::Esdb;
using esdb::ExecStats;
using esdb::Micros;
using esdb::OpType;
using esdb::Query;
using esdb::QueryResult;
using esdb::ShardId;
using esdb::TenantId;
using esdb::WriteOp;

// --- Workload shape (README.md explains each choice) ------------------

constexpr uint32_t kShards = 64;
constexpr uint64_t kTenants = 10000;
// ingest: fresh cluster per round, RefreshAll every 256 acks, then a
// read-back pass of kReadBackRounds query rounds. Round r re-ingests
// stream r % kIngestStreams, so a run averages over several streams'
// hot tenants and routing rules.
constexpr size_t kIngestStreams = 4;
constexpr size_t kIngestRoundDocs = 8192;
constexpr size_t kIngestRefreshEvery = 256;
constexpr size_t kReadBackRounds = 320;
// Corpus preloaded by query: two streams loaded twice each, in turn
// (the loads are query's set-up), each load followed by passes of
// kPassRounds query rounds.
constexpr size_t kQueryStreams = 2;
constexpr size_t kCorpusLoads = 4;
constexpr size_t kCorpusDocs = 16384;
constexpr size_t kLoadRefreshEvery = 256;
constexpr size_t kPassRounds = 512;
// RunBalanceCycle cadence for every write stream.
constexpr size_t kBalanceEvery = 1024;
// Time metrics keep the fastest fifth of each operation's runs
// (stats.h FastestRuns), so a run repeats its work five times as often
// as its tails need: p99 of a class needs 1000 samples and the
// visibility p90 100 refresh cycles (kTailBeyond = 10 beyond the
// tail). Twenty ingest rounds run each of the four streams five times
// and keep one run of each of their 32 cycles (128) and 320 read-back
// rounds (1280); query's two loads of each stream keep one run of each
// of its 64 load cycles (128), and three passes per load keep two of
// the six runs of each of its 512 rounds (2048).
constexpr size_t kMinIngestRounds = 20;
constexpr size_t kMinPassesPerLoad = 3;
// Rounds per pass of a traced run's query passes, and untraced/traced
// round pairs of the ingest traced run.
constexpr size_t kTracedRounds = 500;
constexpr int kPassPairs = 3;
constexpr double kTail = 0.99;
constexpr double kVisibleTail = 0.90;
// Variants of the tenant template per tenant: hot tenants repeat their
// plans (filter-cache hits), cold tenants rarely do.
constexpr uint64_t kTemplateVariants = 4;

enum QueryClass { kPoint, kTenantQ, kTopK, kBroadcast, kNumClasses };
const char* const kClassNames[kNumClasses] = {"point", "tenant", "topk",
                                              "broadcast"};

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SafeDiv(double a, double b) { return b > 0 ? a / b : 0; }

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(3);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

Esdb::Options ClusterOptions(bool replicas) {
  Esdb::Options options;
  options.num_shards = kShards;
  options.routing = esdb::RoutingKind::kDynamic;
  // bench_fig16's balancer settings.
  options.balancer.target_share_per_shard = 0.002;
  options.balancer.max_offset = 8;
  options.with_replicas = replicas;
  return options;
}

// --- Metrics ------------------------------------------------------------

class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    if (!ValidMetricName(name)) Die("invalid metric name " + name);
    if (!std::isfinite(value)) Die("non-finite value for " + name);
    for (const Entry& e : entries_) {
      if (e.name == name) Die("duplicate metric " + name);
    }
    entries_.push_back({name, value, unit});
  }

  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%.12g", entries_[i].value);
      if (i > 0) out += ", ";
      out += "\"" + entries_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + entries_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// A named tail of `samples`; the run stops if the data cannot resolve
// it (fewer than kTailBeyond samples beyond).
double Tail(std::vector<double>* samples, double p, const std::string& what) {
  if (!TailResolves(samples->size(), p)) {
    Die(what + ": " + std::to_string(samples->size()) +
        " samples cannot resolve p" + std::to_string(p * 100) +
        "; the highest they resolve is p" +
        std::to_string(HighestTail(samples->size()) * 100));
  }
  return Percentile(samples, p);
}

// Outcome of a run: op counts and correctness.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

  void Mismatch(const std::string& what) {
    if (correct) std::fprintf(stderr, "perfbench: mismatch: %s\n", what.c_str());
    correct = false;
  }
};

// --- Inputs ------------------------------------------------------------

// A stream of inserts with created_time = 1 ms per doc, one
// ShiftHotspots at its midpoint. `gen` continues across streams so
// record ids stay unique.
struct WriteStream {
  std::vector<WriteOp> ops;
  double user_bytes = 0;  // JSON bytes of the documents
};

WriteStream MakeStream(esdb::WorkloadGenerator* gen, size_t n,
                       size_t first_index, uint64_t shift) {
  WriteStream stream;
  stream.ops.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (i == n / 2) gen->ShiftHotspots(shift);
    WriteOp op{OpType::kInsert,
               gen->NextDocument(Micros(first_index + i) * esdb::kMicrosPerMilli)};
    stream.user_bytes += double(esdb::ToJson(op.doc).size());
    stream.ops.push_back(std::move(op));
  }
  return stream;
}

esdb::WorkloadGenerator::Options GeneratorOptions(uint64_t seed) {
  esdb::WorkloadGenerator::Options options;
  options.num_tenants = kTenants;
  options.theta = 1.0;
  options.seed = seed;
  return options;
}

// Generator seed of stream `k` (< 4) of a run: a workload that
// averages over several streams (sets of hot tenants and routing
// rules) draws each from its own seed.
uint64_t StreamSeed(uint64_t seed, size_t k) { return seed * 4 + k; }

uint64_t HotspotShift(uint64_t seed, uint64_t stream) {
  return 1 + (seed * 7919 + stream * 104729) % (kTenants - 1);
}

// Refreshed docs per tenant.
using Tally = std::map<int64_t, uint64_t>;

void AddToTally(const WriteStream& stream, size_t count, Tally* tally) {
  for (size_t i = 0; i < count; ++i) ++(*tally)[stream.ops[i].doc.tenant_id()];
}

// Latencies of a query class by round of a pass: [round][run].
using ByRound = std::vector<std::vector<double>>;

// One query of the op stream: SQL built before the timed window, plus
// what its result is checked against.
struct QueryOp {
  QueryClass cls = kPoint;
  std::string sql;
  TenantId tenant = 0;
  Document doc;  // point: a copy of the inserted document
};

const char* const kGroupColumns[] = {"status", "channel", "region",
                                     "quantity"};

// Round-robin over the four classes. Each class's targets are
// documents of `corpus` drawn one from each of `rounds` equal slices
// of the stream, so tenants follow the write skew and a pass's mix of
// hot and cold tenants varies little from seed to seed.
std::vector<QueryOp> MakeQueries(const WriteStream& corpus, size_t rounds,
                                 uint64_t seed) {
  esdb::Rng rng(seed * 2654435761u + 17);
  const Micros now = Micros(corpus.ops.size()) * esdb::kMicrosPerMilli;
  std::map<std::pair<TenantId, uint64_t>, std::string> templates;
  std::vector<QueryOp> ops;
  ops.reserve(rounds * kNumClasses);
  for (size_t r = 0; r < rounds; ++r) {
    for (int c = 0; c < kNumClasses; ++c) {
      QueryOp op;
      op.cls = QueryClass(c);
      const size_t n = corpus.ops.size();
      const Document& doc = corpus.ops[(r * n + rng.Uniform(n)) / rounds].doc;
      op.tenant = doc.tenant_id();
      const std::string tenant = std::to_string(op.tenant);
      switch (op.cls) {
        case kPoint:
          op.doc = doc;
          op.sql = "SELECT * FROM transaction_logs WHERE tenant_id = " +
                   tenant + " AND record_id = " +
                   std::to_string(doc.record_id());
          break;
        case kTenantQ: {
          const auto key = std::make_pair(op.tenant,
                                          rng.Uniform(kTemplateVariants));
          auto it = templates.find(key);
          if (it == templates.end()) {
            esdb::QueryGenerator::Options qopts;
            qopts.seed = seed * 1000003 + uint64_t(key.first) * 31 + key.second;
            esdb::QueryGenerator generator(qopts);
            it = templates.emplace(key, generator.NextSql(key.first, now)).first;
          }
          op.sql = it->second;
          break;
        }
        case kTopK:
          op.sql = "SELECT * FROM transaction_logs WHERE tenant_id = " +
                   tenant + " ORDER BY created_time DESC LIMIT 20";
          break;
        default: {
          const char* column = kGroupColumns[r % 4];
          op.tenant = 0;
          op.sql = std::string("SELECT ") + column +
                   ", COUNT(*) FROM transaction_logs GROUP BY " + column;
          break;
        }
      }
      ops.push_back(std::move(op));
    }
  }
  return ops;
}

// What a result is checked against: the live doc count and the
// driver's own per-tenant tally of refreshed docs.
struct Expected {
  uint64_t docs = 0;
  const Tally* tally = nullptr;
};

uint64_t TallyOf(const Tally* tally, TenantId tenant) {
  auto it = tally->find(tenant);
  return it == tally->end() ? 0 : it->second;
}

// Correctness gate for one query result; returns "" when it holds.
std::string CheckResult(const QueryOp& op, const QueryResult& r,
                        const Expected& e) {
  switch (op.cls) {
    case kPoint:
      if (r.rows.size() != 1 || !(r.rows[0] == op.doc)) {
        return "point lookup did not return the inserted document";
      }
      return "";
    case kTenantQ:
      if (r.rows.size() > 100) return "tenant query exceeded its LIMIT";
      for (const Document& row : r.rows) {
        if (row.tenant_id() != op.tenant) return "tenant query leaked rows";
      }
      return "";
    case kTopK: {
      const uint64_t known = std::min<uint64_t>(20, TallyOf(e.tally, op.tenant));
      if (r.rows.size() != known) {
        return "topk row count " + std::to_string(r.rows.size()) +
               " != " + std::to_string(known);
      }
      for (size_t i = 0; i < r.rows.size(); ++i) {
        if (r.rows[i].tenant_id() != op.tenant) return "topk leaked rows";
        if (i > 0 && r.rows[i].created_time() > r.rows[i - 1].created_time()) {
          return "topk rows out of order";
        }
      }
      return "";
    }
    default: {
      uint64_t sum = 0;
      for (const auto& [key, group] : r.groups) sum += group.count;
      if (sum != e.docs) {
        return "broadcast GROUP BY counts sum to " + std::to_string(sum) +
               ", expected " + std::to_string(e.docs);
      }
      return "";
    }
  }
}

// Post-run gates over a quiesced cluster holding every doc of `docs`:
// exact point lookups, tenant COUNT(*) against the tally, and the
// broadcast sum.
void RunGates(Esdb* db, const WriteStream& docs, const Tally& tally,
              uint64_t seed, Outcome* outcome) {
  const size_t visible = docs.ops.size();
  esdb::Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  auto run = [&](const std::string& sql) -> esdb::Result<QueryResult> {
    ++outcome->attempted;
    auto r = db->ExecuteSql(sql);
    if (!r.ok()) ++outcome->failed;
    return r;
  };
  for (int i = 0; i < 200; ++i) {
    QueryOp op;
    op.cls = kPoint;
    op.doc = docs.ops[rng.Uniform(visible)].doc;
    op.tenant = op.doc.tenant_id();
    op.sql = "SELECT * FROM transaction_logs WHERE tenant_id = " +
             std::to_string(op.tenant) +
             " AND record_id = " + std::to_string(op.doc.record_id());
    auto r = run(op.sql);
    if (r.ok()) {
      const std::string bad = CheckResult(op, *r, Expected{});
      if (!bad.empty()) outcome->Mismatch("gate: " + bad);
    }
  }
  // The hottest tenants plus a uniform sample of the rest.
  std::vector<std::pair<uint64_t, int64_t>> by_count;
  for (const auto& [tenant, count] : tally) by_count.push_back({count, tenant});
  std::sort(by_count.rbegin(), by_count.rend());
  std::set<int64_t> tenants;
  for (size_t i = 0; i < by_count.size() && i < 50; ++i) {
    tenants.insert(by_count[i].second);
  }
  for (int i = 0; i < 50 && !by_count.empty(); ++i) {
    tenants.insert(by_count[rng.Uniform(by_count.size())].second);
  }
  for (int64_t tenant : tenants) {
    auto r = run("SELECT COUNT(*) FROM transaction_logs WHERE tenant_id = " +
                 std::to_string(tenant));
    if (r.ok() && r->agg_count != TallyOf(&tally, tenant)) {
      outcome->Mismatch("gate: tenant " + std::to_string(tenant) + " COUNT " +
                        std::to_string(r->agg_count) + " != tally " +
                        std::to_string(TallyOf(&tally, tenant)));
    }
  }
  QueryOp broadcast;
  broadcast.cls = kBroadcast;
  auto r = run("SELECT status, COUNT(*) FROM transaction_logs GROUP BY status");
  if (r.ok()) {
    const std::string bad =
        CheckResult(broadcast, *r, Expected{visible, &tally});
    if (!bad.empty()) outcome->Mismatch("gate: " + bad);
  }
}

// --- Write path ---------------------------------------------------------

// Per-layer write-path counters of a traced stream. The counts (not
// the times) must repeat exactly for a single-client stream.
struct StorageTrace {
  double route_s = 0;
  uint64_t routes = 0;
  double refresh_s = 0;
  double merge_s = 0;
  double flush_s = 0;
  double balance_s = 0;
  double refresh_all_s = 0;  // RefreshAll timed as a unit (replicas)
  uint64_t refresh_alls = 0;
  uint64_t segments_built = 0;
  uint64_t docs_in_segments = 0;
  uint64_t merges = 0;
  uint64_t merge_bytes = 0;
  uint64_t balance_cycles = 0;
  uint64_t rules_committed = 0;

  bool SameCounts(const StorageTrace& o) const {
    return routes == o.routes && segments_built == o.segments_built &&
           docs_in_segments == o.docs_in_segments && merges == o.merges &&
           merge_bytes == o.merge_bytes && balance_cycles == o.balance_cycles &&
           rules_committed == o.rules_committed;
  }
};

// One refresh cycle of a write stream: the acks before a RefreshAll,
// the RefreshAll, the Flush and any balance cycle due.
struct Cycle {
  double wall_s = 0;
  double docs = 0;
  std::vector<double> visible_ms;  // ack -> end of the publishing RefreshAll
};

// End-to-end samples of the runs of one write stream, by position in
// the stream: write_us[i] holds every run's ack latency of op i (of
// Esdb::Apply), cycles[c] every run's c-th refresh cycle.
struct WriteRecord {
  std::vector<std::vector<double>> write_us;
  std::vector<std::vector<Cycle>> cycles;
};

std::set<uint64_t> SegmentIds(const esdb::SegmentSnapshot& snapshot) {
  std::set<uint64_t> ids;
  for (const esdb::SegmentView& view : *snapshot) ids.insert(view.id());
  return ids;
}

// RefreshAll on a replica-less cluster, replayed as per-shard Refresh
// then MaybeMerge (the same serial work RefreshAll does), each timed.
// Merge bytes are the sizes of segments a merge published (snapshot
// diff around MaybeMerge).
void TracedRefreshAll(Esdb* db, StorageTrace* trace) {
  for (uint32_t s = 0; s < kShards; ++s) {
    esdb::ShardStore* store = db->shard(ShardId(s));
    const size_t buffered = store->buffered_docs();
    double t = Now();
    const bool built = store->Refresh();
    trace->refresh_s += Now() - t;
    if (built) {
      ++trace->segments_built;
      trace->docs_in_segments += buffered;
    }
    const std::set<uint64_t> before = SegmentIds(store->Snapshot());
    t = Now();
    const bool merged = store->MaybeMerge();
    trace->merge_s += Now() - t;
    if (merged) {
      ++trace->merges;
      for (const esdb::SegmentView& view : *store->Snapshot()) {
        if (before.count(view.id()) == 0) trace->merge_bytes += view.SizeBytes();
      }
    }
  }
}

// RefreshAll timed as a unit (with replicas it also runs the
// replication round, which the benchmark cannot split). Segment
// counts come from next_segment_id and snapshot diffs per primary:
// one refresh segment and at most one merge output per shard.
void CountedRefreshAll(Esdb* db, StorageTrace* trace) {
  std::vector<uint64_t> next_ids(kShards);
  std::vector<std::set<uint64_t>> before(kShards);
  for (uint32_t s = 0; s < kShards; ++s) {
    const esdb::ShardStore* store = db->shard(ShardId(s));
    next_ids[s] = store->next_segment_id();
    before[s] = SegmentIds(store->Snapshot());
    trace->docs_in_segments += store->buffered_docs();
  }
  const double t = Now();
  db->RefreshAll();
  trace->refresh_all_s += Now() - t;
  ++trace->refresh_alls;
  for (uint32_t s = 0; s < kShards; ++s) {
    const esdb::ShardStore* store = db->shard(ShardId(s));
    const uint64_t created = store->next_segment_id() - next_ids[s];
    const esdb::SegmentSnapshot after = store->Snapshot();
    bool removed = false;
    const std::set<uint64_t> after_ids = SegmentIds(after);
    for (uint64_t id : before[s]) removed = removed || after_ids.count(id) == 0;
    if (removed && created > 0) {
      ++trace->merges;
      const uint64_t output = *after_ids.rbegin();
      for (const esdb::SegmentView& view : *after) {
        if (view.id() == output) trace->merge_bytes += view.SizeBytes();
      }
    }
    trace->segments_built += created - (removed && created > 0 ? 1 : 0);
  }
}

void FlushAll(Esdb* db, StorageTrace* trace) {
  const double t = Now();
  for (uint32_t s = 0; s < kShards; ++s) db->shard(ShardId(s))->Flush();
  if (trace != nullptr) trace->flush_s += Now() - t;
}

void BalanceCycle(Esdb* db, Micros effective_time, StorageTrace* trace) {
  const double t = Now();
  const size_t committed = db->RunBalanceCycle(effective_time);
  if (trace != nullptr) {
    trace->balance_s += Now() - t;
    ++trace->balance_cycles;
    trace->rules_committed += committed;
  }
}

// Times the routing decision Esdb::Apply makes for `op`.
void TimedRouteWrite(Esdb* db, const WriteOp& op, StorageTrace* trace) {
  const double t = Now();
  (void)db->routing().RouteWrite(
      esdb::RouteKey{op.tenant_id(), op.record_id(), op.created_time()});
  trace->route_s += Now() - t;
  ++trace->routes;
}

// Closed-loop single-client write stream: Apply each op, RefreshAll
// followed by Flush of every shard every `refresh_every` acks (and
// after the last op), RunBalanceCycle every kBalanceEvery acks. With
// `trace`, RouteWrite is timed beside each Apply and RefreshAll is
// replayed per shard. Returns the stream's wall seconds.
double RunWrites(Esdb* db, const WriteStream& stream, size_t refresh_every,
                 WriteRecord* record, StorageTrace* trace, Outcome* outcome) {
  const size_t n = stream.ops.size();
  std::vector<double> ack(n);
  size_t unpublished = 0;
  record->write_us.resize(n);
  size_t cycle = 0;
  Cycle current;
  const double start = Now();
  double cycle_start = start;
  for (size_t i = 0; i < n; ++i) {
    const WriteOp& op = stream.ops[i];
    if (trace != nullptr) TimedRouteWrite(db, op, trace);
    const double t0 = Now();
    const esdb::Status status = db->Apply(op);
    ack[i] = Now();
    record->write_us[i].push_back((ack[i] - t0) * 1e6);
    ++outcome->attempted;
    if (!status.ok()) ++outcome->failed;
    const bool cycle_end = (i + 1) % refresh_every == 0 || i + 1 == n;
    if (cycle_end) {
      if (trace != nullptr && db->with_replicas()) {
        CountedRefreshAll(db, trace);
      } else if (trace != nullptr) {
        TracedRefreshAll(db, trace);
      } else {
        db->RefreshAll();
      }
      const double published = Now();
      for (; unpublished <= i; ++unpublished) {
        current.visible_ms.push_back((published - ack[unpublished]) * 1e3);
        ++current.docs;
      }
      FlushAll(db, trace);
    }
    if ((i + 1) % kBalanceEvery == 0) {
      BalanceCycle(db, op.created_time() + 1, trace);
    }
    if (cycle_end) {
      const double now = Now();
      current.wall_s = now - cycle_start;
      cycle_start = now;
      if (record->cycles.size() <= cycle) record->cycles.emplace_back();
      record->cycles[cycle++].push_back(std::move(current));
      current = Cycle();
    }
  }
  return Now() - start;
}

// --- Query path -----------------------------------------------------------

// Named stages of the traced query pipeline, in execution order.
enum Stage {
  kParse, kNormalize, kPlan, kRoute, kSnapshot, kCost, kShardExec, kMerge,
  kFetch, kNumStages
};
const char* const kStageNames[kNumStages] = {
    "parse_us", "normalize_us", "plan_us", "route_us", "snapshot_us",
    "cost_us", "shard_exec_us", "merge_us", "fetch_us"};

// Per-class accumulators of the traced pipeline.
struct ClassTrace {
  uint64_t queries = 0;
  double stage_s[kNumStages] = {};
  double total_s = 0;
  ExecStats stats;
  uint64_t subqueries = 0;
  uint64_t segments = 0;  // segments in the pinned snapshots
  uint64_t rows = 0;      // rows returned (a GROUP BY group is a row)
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;

  bool SameCounts(const ClassTrace& o) const {
    return queries == o.queries && subqueries == o.subqueries &&
           segments == o.segments && rows == o.rows &&
           cache_hits == o.cache_hits && cache_misses == o.cache_misses &&
           stats.segments_visited == o.stats.segments_visited &&
           stats.postings_considered == o.stats.postings_considered &&
           stats.docs_filtered == o.stats.docs_filtered &&
           stats.rows_materialized == o.stats.rows_materialized;
  }
};

uint64_t ResultRows(const QueryResult& r) {
  return r.groups.empty() ? r.rows.size() : r.groups.size();
}

// The front end's tenant extraction: a tenant_id equality, possibly
// nested under ANDs (mirrors cluster/esdb.cc).
bool ExtractTenant(const esdb::Expr& e, TenantId* out) {
  if (e.kind == esdb::Expr::Kind::kPred) {
    const esdb::Predicate& p = e.pred;
    if (p.column == esdb::kFieldTenantId && p.op == esdb::PredOp::kEq &&
        p.args.size() == 1 && p.args[0].is_int()) {
      *out = p.args[0].as_int();
      return true;
    }
    return false;
  }
  if (e.kind == esdb::Expr::Kind::kAnd) {
    for (const auto& c : e.children) {
      if (ExtractTenant(*c, out)) return true;
    }
  }
  return false;
}

// Esdb::ExecuteSql rebuilt from the layers' public functions, each
// stage timed. Subqueries run serially in shard-ordinal order, so
// filter-cache insertion order (and with it every count) repeats
// exactly. Results must equal ExecuteSql's; TracedPasses checks that.
esdb::Result<QueryResult> TracedExecute(Esdb* db, const std::string& sql,
                                        ClassTrace* ct) {
  const double begin = Now();
  double mark = begin;
  const auto lap = [&](Stage stage) {
    const double now = Now();
    ct->stage_s[stage] += now - mark;
    mark = now;
  };
  esdb::FilterCache* cache = db->filter_cache();
  const uint64_t hits0 = cache->hits();
  const uint64_t misses0 = cache->misses();

  if (esdb::IsDmlStatement(sql)) {
    return esdb::Status::InvalidArgument("DML statement");
  }
  esdb::Result<Query> parsed = esdb::ParseSql(sql);
  if (!parsed.ok()) return parsed.status();
  const Query& query = *parsed;
  lap(kParse);

  std::unique_ptr<esdb::Expr> normalized;
  if (query.where != nullptr) {
    normalized = esdb::NormalizeForPlanning(query.where->Clone());
  }
  lap(kNormalize);

  const esdb::PlannerOptions planner;  // Esdb::Options' default planner
  std::unique_ptr<esdb::PlanNode> plan =
      esdb::PlanWhere(normalized.get(), db->spec(), planner);
  lap(kPlan);

  std::vector<ShardId> targets;
  TenantId tenant = 0;
  if (query.where != nullptr && ExtractTenant(*query.where, &tenant)) {
    targets = db->routing().RouteRead(tenant);
  } else {
    for (uint32_t s = 0; s < db->num_shards(); ++s) targets.push_back(s);
  }
  lap(kRoute);

  std::vector<esdb::SegmentSnapshot> snapshots;
  snapshots.reserve(targets.size());
  for (ShardId shard : targets) snapshots.push_back(db->shard(shard)->Snapshot());
  lap(kSnapshot);

  ExecStats stats;
  if (planner.use_cost_model) {
    const esdb::StatsView view = esdb::StatsView::Collect(snapshots);
    esdb::ApplyCostTransforms(query, db->spec(), view, &plan);
    ++stats.plans_costed;
  }
  lap(kCost);

  esdb::ExecOptions opts;
  opts.batch_execution = db->batch_execution();
  const size_t fan_out = targets.size();
  QueryResult result;
  if (query.agg == esdb::AggFunc::kNone && query.group_by.empty()) {
    // Two-phase: row refs from every shard, global merge, fetch.
    std::vector<esdb::RowRef> refs;
    for (size_t i = 0; i < fan_out; ++i) {
      ExecStats shard_stats;
      uint64_t matched = 0;
      bool exact = true;
      auto shard_refs = esdb::ExecuteQueryPhase(
          query, *plan, *snapshots[i], uint32_t(i), &shard_stats, &matched,
          &exact, cache, targets[i], opts);
      if (!shard_refs.ok()) return shard_refs.status();
      stats.Add(shard_stats);
      result.total_matched += matched;
      result.total_matched_exact = result.total_matched_exact && exact;
      for (esdb::RowRef& ref : *shard_refs) refs.push_back(std::move(ref));
    }
    lap(kShardExec);
    if (!query.order_by.empty()) esdb::SortRowRefs(query, &refs);
    if (query.offset > 0) {
      const size_t skip = std::min(size_t(query.offset), refs.size());
      refs.erase(refs.begin(), refs.begin() + long(skip));
    }
    if (query.limit >= 0 && int64_t(refs.size()) > query.limit) {
      refs.resize(size_t(query.limit));
    }
    lap(kMerge);
    auto fetched = esdb::ExecuteFetchPhase(query, snapshots, refs, &stats, opts);
    if (!fetched.ok()) return fetched.status();
    result.rows = std::move(*fetched);
    esdb::ProjectRows(query, &result.rows);
    lap(kFetch);
  } else {
    std::vector<QueryResult> shard_results(fan_out);
    for (size_t i = 0; i < fan_out; ++i) {
      ExecStats shard_stats;
      auto r = esdb::ExecuteOnShard(query, *plan, *snapshots[i], &shard_stats,
                                    cache, targets[i], opts);
      if (!r.ok()) return r.status();
      stats.Add(shard_stats);
      shard_results[i] = std::move(*r);
    }
    lap(kShardExec);
    result = esdb::AggregateResults(query, std::move(shard_results));
    lap(kMerge);
  }
  ct->total_s += Now() - begin;
  ++ct->queries;
  ct->stats.Add(stats);
  ct->subqueries += fan_out;
  for (const auto& snapshot : snapshots) ct->segments += snapshot->size();
  ct->rows += ResultRows(result);
  ct->cache_hits += cache->hits() - hits0;
  ct->cache_misses += cache->misses() - misses0;
  return result;
}

bool SameResult(const QueryResult& a, const QueryResult& b) {
  if (!(a.rows == b.rows) || a.total_matched != b.total_matched ||
      a.total_matched_exact != b.total_matched_exact ||
      a.agg_count != b.agg_count || a.groups.size() != b.groups.size()) {
    return false;
  }
  auto ia = a.groups.begin();
  for (auto ib = b.groups.begin(); ib != b.groups.end(); ++ia, ++ib) {
    if (!(ia->first == ib->first) || ia->second.count != ib->second.count) {
      return false;
    }
  }
  return true;
}

// Result of the traced runs' read-only query passes.
struct PassReport {
  ClassTrace traced[kNumClasses];
  // Named-stage time over the class's ExecuteSql time.
  double attributed_share[kNumClasses] = {};
  // ExecuteSql time outside the named stages, per query.
  double unattributed_us[kNumClasses] = {};
  // Traced over untraced time, minus 1, in percent.
  double overhead_pct = 0;
};

// Read-only passes over `ops` on quiesced clusters. `db` runs the
// traced pipeline; `twin`, a cluster built from the same inputs (so
// its segments and rules are identical), runs ExecuteSql on each query
// right beside it, alternating which goes first. Adjacent pairs keep
// host drift out of the overhead and attribution ratios, and each
// cluster's own filter cache sees the same query sequence, so neither
// warms the other's. (Whichever runs second finds the CPU caches warm
// for that SQL, hence the alternation.) A second traced pass from a
// cleared cache must repeat the first pass's counts exactly.
PassReport TracedPasses(Esdb* db, Esdb* twin, const std::vector<QueryOp>& ops,
                        const Expected& expected, Outcome* outcome) {
  PassReport report;
  double traced_s = 0, untraced_s[kNumClasses] = {};
  db->filter_cache()->Clear();
  twin->filter_cache()->Clear();
  for (size_t i = 0; i < ops.size(); ++i) {
    // Alternate by round, not by op: rounds hold one op per class, so
    // alternating by op would fix each class's order.
    const bool twin_first = (i / kNumClasses) % 2 == 1;
    esdb::Result<QueryResult> untraced = esdb::Status::InvalidArgument("not run");
    const auto run_twin = [&] {
      ++outcome->attempted;
      const double t = Now();
      untraced = twin->ExecuteSql(ops[i].sql);
      untraced_s[ops[i].cls] += Now() - t;
      if (!untraced.ok()) ++outcome->failed;
    };
    if (twin_first) run_twin();
    ++outcome->attempted;
    ClassTrace& ct = report.traced[ops[i].cls];
    const double before = ct.total_s;
    auto r = TracedExecute(db, ops[i].sql, &ct);
    traced_s += ct.total_s - before;
    if (!twin_first) run_twin();
    if (!r.ok()) {
      ++outcome->failed;
      continue;
    }
    const std::string bad = CheckResult(ops[i], *r, expected);
    if (!bad.empty()) outcome->Mismatch(bad);
    if (untraced.ok() && !SameResult(*untraced, *r)) {
      outcome->Mismatch("traced pipeline differs from ExecuteSql for " +
                        ops[i].sql);
    }
  }
  // Determinism: the same pass again from a cleared cache.
  ClassTrace again[kNumClasses];
  db->filter_cache()->Clear();
  for (const QueryOp& op : ops) {
    ++outcome->attempted;
    if (!TracedExecute(db, op.sql, &again[op.cls]).ok()) ++outcome->failed;
  }
  double untraced_total = 0;
  for (int c = 0; c < kNumClasses; ++c) {
    if (!again[c].SameCounts(report.traced[c])) {
      outcome->Mismatch(std::string("traced ") + kClassNames[c] +
                        " counts differ between two passes");
    }
    double staged = 0;
    for (double stage : report.traced[c].stage_s) staged += stage;
    report.attributed_share[c] = SafeDiv(staged, untraced_s[c]);
    report.unattributed_us[c] =
        SafeDiv((untraced_s[c] - staged) * 1e6, double(report.traced[c].queries));
    untraced_total += untraced_s[c];
  }
  report.overhead_pct = SafeDiv(traced_s - untraced_total, untraced_total) * 100;
  return report;
}

// --- Metric emission ------------------------------------------------------

// Write metrics over the fastest fifth of each operation's runs: of
// each op's ack latencies, and of each refresh cycle's runs (ranked by
// the cycle's wall time) for the write rate and visibility.
void EmitWriteMetrics(Metrics* m, const WriteRecord& w) {
  double docs = 0, seconds = 0;
  size_t cycles = 0;
  std::vector<double> visible_ms;
  for (const std::vector<Cycle>& runs : w.cycles) {
    std::vector<double> walls;
    for (const Cycle& run : runs) walls.push_back(run.wall_s);
    const std::vector<bool> fast = FastUnits(walls, kFastShare);
    std::vector<double> fast_walls;
    for (size_t r = 0; r < runs.size(); ++r) {
      if (!fast[r]) continue;
      fast_walls.push_back(runs[r].wall_s);
      visible_ms.insert(visible_ms.end(), runs[r].visible_ms.begin(),
                        runs[r].visible_ms.end());
      ++cycles;
    }
    docs += runs[0].docs;
    double sum = 0;
    for (double wall : fast_walls) sum += wall;
    seconds += sum / double(fast_walls.size());
  }
  if (!TailResolves(cycles, kVisibleTail)) {
    Die("visibility: " + std::to_string(cycles) +
        " fast refresh cycles cannot resolve its p90");
  }
  std::vector<double> write_us = FastestRuns(w.write_us, kFastShare);
  m->Add("ingest_docs_per_s", docs / seconds, "docs/s");
  m->Add("write_p50_us", Percentile(&write_us, 0.5), "us");
  m->Add("write_p99_us", Tail(&write_us, kTail, "write"), "us");
  m->Add("visible_p50_ms", Percentile(&visible_ms, 0.5), "ms");
  m->Add("visible_p90_ms", Percentile(&visible_ms, kVisibleTail), "ms");
}

// Query latencies over the fastest fifth of each query's runs, as a
// median and a tail. topk's p99 is set by the dozen queries on the
// hottest tenants, whose mix varies with the seed (quartile spread 0.29
// over ten ingest runs), and the host's millisecond stalls land on
// about 1% of broadcasts and straddle their p99 (2.9-9.8 ms over ten
// runs of one build); both report the p90.
void EmitQueryMetrics(Metrics* m, const ByRound (&latency_us)[kNumClasses]) {
  const double tails[kNumClasses] = {kTail, kTail, 0.90, 0.90};
  for (int c = 0; c < kNumClasses; ++c) {
    const std::string name = kClassNames[c];
    std::vector<double> samples = FastestRuns(latency_us[c], kFastShare);
    m->Add(name + "_p50_us", Percentile(&samples, 0.5), "us");
    m->Add(name + (tails[c] == kTail ? "_p99_us" : "_p90_us"),
           Tail(&samples, tails[c], name), "us");
  }
}

// Everything the per-layer metrics are computed from. Fields a
// workload does not exercise stay 0 (e.g. replication without
// replicas).
struct LayerInputs {
  StorageTrace storage;
  double stream_user_bytes = 0;  // denominator of merge bytes
  double stream_wall_s = 0;      // wall time of the traced stream
  PassReport passes;
  size_t rule_entries = 0;
  double replication_bytes = 0;
  double replication_user_bytes = 0;
  uint64_t segments_copied = 0;
  double write_trace_overhead_pct = 0;
};

void EmitLayerMetrics(Metrics* m, const LayerInputs& in) {
  const StorageTrace& st = in.storage;
  const ClassTrace* ct = in.passes.traced;
  double route_read_s = 0, scoped_queries = 0, scoped_subqueries = 0;
  double segments = 0, subqueries = 0, hits = 0, lookups = 0;
  for (int c = 0; c < kNumClasses; ++c) {
    if (c != kBroadcast) {
      route_read_s += ct[c].stage_s[kRoute];
      scoped_queries += double(ct[c].queries);
      scoped_subqueries += double(ct[c].subqueries);
    }
    segments += double(ct[c].segments);
    subqueries += double(ct[c].subqueries);
    hits += double(ct[c].cache_hits);
    lookups += double(ct[c].cache_hits + ct[c].cache_misses);
  }
  m->Add("storage.refresh_us_per_segment",
         SafeDiv(st.refresh_s * 1e6, double(st.segments_built)), "us");
  m->Add("storage.segments_built", double(st.segments_built), "count");
  m->Add("storage.docs_per_segment",
         SafeDiv(double(st.docs_in_segments), double(st.segments_built)), "docs");
  m->Add("storage.refresh_ms_total", st.refresh_s * 1e3, "ms");
  m->Add("storage.merge_ms_total", st.merge_s * 1e3, "ms");
  m->Add("storage.merges", double(st.merges), "count");
  m->Add("storage.merge_bytes_per_user_byte",
         SafeDiv(double(st.merge_bytes), in.stream_user_bytes), "ratio");
  m->Add("storage.flush_ms_total", st.flush_s * 1e3, "ms");
  // RefreshAll (replayed per shard, or timed as a unit with replicas)
  // plus Flush, over the traced stream's wall time.
  m->Add("storage.maintenance_share",
         SafeDiv(st.refresh_s + st.merge_s + st.refresh_all_s + st.flush_s,
                 in.stream_wall_s),
         "ratio");
  m->Add("storage.segments_per_subquery", SafeDiv(segments, subqueries), "count");
  m->Add("routing.route_write_ns", SafeDiv(st.route_s * 1e9, double(st.routes)), "ns");
  m->Add("routing.route_read_ns", SafeDiv(route_read_s * 1e9, scoped_queries), "ns");
  m->Add("routing.read_fanout", SafeDiv(scoped_subqueries, scoped_queries), "shards");
  m->Add("routing.rules", double(in.rule_entries), "count");
  m->Add("balancer.cycle_ms",
         SafeDiv(st.balance_s * 1e3, double(st.balance_cycles)), "ms");
  m->Add("balancer.rules_committed", double(st.rules_committed), "count");
  m->Add("query.filter_cache_hit_ratio", SafeDiv(hits, lookups), "ratio");
  m->Add("query.filter_cache_hits", hits, "count");
  for (int c = 0; c < kNumClasses; ++c) {
    const std::string suffix = std::string(".") + kClassNames[c];
    const double q = double(ct[c].queries);
    for (int s = 0; s < kNumStages; ++s) {
      if (s == kRoute) continue;  // reported as routing.route_read_ns
      m->Add(std::string("query.") + kStageNames[s] + suffix,
             SafeDiv(ct[c].stage_s[s] * 1e6, q), "us");
    }
    const double rows = std::max<double>(1, double(ct[c].rows));
    m->Add("query.subqueries" + suffix, double(ct[c].subqueries), "count");
    m->Add("query.postings_per_row" + suffix,
           double(ct[c].stats.postings_considered) / rows, "ratio");
    m->Add("query.docs_filtered_per_row" + suffix,
           double(ct[c].stats.docs_filtered) / rows, "ratio");
    m->Add("query.rows_materialized_per_row" + suffix,
           double(ct[c].stats.rows_materialized) / rows, "ratio");
    m->Add("cluster.unattributed_us" + suffix, in.passes.unattributed_us[c],
           "us");
    m->Add("cluster.attributed_share" + suffix,
           in.passes.attributed_share[c], "ratio");
  }
  m->Add("replication.bytes_copied_per_user_byte",
         SafeDiv(in.replication_bytes, in.replication_user_bytes), "ratio");
  m->Add("replication.segments_copied", double(in.segments_copied), "count");
  m->Add("replication.refresh_all_ms",
         SafeDiv(st.refresh_all_s * 1e3, double(st.refresh_alls)), "ms");
  m->Add("driver.trace_overhead_pct", in.passes.overhead_pct, "%");
  m->Add("driver.write_trace_overhead_pct", in.write_trace_overhead_pct, "%");
}

// --- Closed-loop queries ------------------------------------------------

// One query pass: every op of `ops` once, in order (round-robin over
// the classes). Appends each op's ExecuteSql latency to its class's
// entry for the op's round.
void RunQueryPass(Esdb* db, const std::vector<QueryOp>& ops,
                  const Expected& expected, ByRound (&latency_us)[kNumClasses],
                  Outcome* outcome) {
  for (size_t k = 0; k < ops.size(); ++k) {
    const QueryOp& op = ops[k];
    ByRound& runs = latency_us[op.cls];
    if (runs.size() <= k / kNumClasses) runs.resize(k / kNumClasses + 1);
    ++outcome->attempted;
    const double t = Now();
    auto r = db->ExecuteSql(op.sql);
    runs[k / kNumClasses].push_back((Now() - t) * 1e6);
    if (!r.ok()) {
      ++outcome->failed;
      continue;
    }
    const std::string bad = CheckResult(op, *r, expected);
    if (!bad.empty()) outcome->Mismatch(bad);
  }
}

// --- Workloads ------------------------------------------------------------

struct RunResult {
  Metrics metrics;
  Outcome outcome;
};

// A fresh ingest round's inputs and cluster: ingest stream `k` of the
// seed and an empty replica-less cluster. This is ingest's set-up.
void SetUpRound(uint64_t seed, size_t k, WriteStream* stream,
                std::unique_ptr<Esdb>* db) {
  db->reset();
  esdb::WorkloadGenerator gen(GeneratorOptions(StreamSeed(seed, k)));
  *stream = MakeStream(&gen, kIngestRoundDocs, 0, HotspotShift(seed, k));
  *db = std::make_unique<Esdb>(ClusterOptions(false));
}

// What a workload keeps per stream: its checks and its samples.
struct StreamSamples {
  Tally tally;
  std::vector<QueryOp> queries;  // a query pass over the stream
  WriteRecord record;
  ByRound latency_us[kNumClasses];
};

// Pools the streams' samples; each stream's ops are operations of
// their own.
void PoolStreams(const std::vector<StreamSamples>& streams,
                 WriteRecord* record, ByRound (&latency_us)[kNumClasses]) {
  for (const StreamSamples& s : streams) {
    record->write_us.insert(record->write_us.end(), s.record.write_us.begin(),
                            s.record.write_us.end());
    record->cycles.insert(record->cycles.end(), s.record.cycles.begin(),
                          s.record.cycles.end());
    for (int c = 0; c < kNumClasses; ++c) {
      latency_us[c].insert(latency_us[c].end(), s.latency_us[c].begin(),
                           s.latency_us[c].end());
    }
  }
}

// ingest: one client inserts in a closed loop into a replica-less
// cluster. Rounds of kIngestRoundDocs, each set up afresh and each
// followed by a read-back of its corpus, repeat until the window has
// passed and every stream ran often enough for the tails; the gates
// then run on the last round's cluster. The traced run replays
// stream 0.
RunResult Ingest(uint64_t seed, double seconds, bool traced) {
  RunResult run;
  Outcome* out = &run.outcome;
  const double deadline = Now() + seconds;
  WriteStream stream;
  std::unique_ptr<Esdb> db;
  std::vector<double> setup_s;
  const auto set_up = [&](size_t k) {
    const double t = Now();
    SetUpRound(seed, k, &stream, &db);
    setup_s.push_back(Now() - t);
  };
  set_up(0);
  const size_t n = stream.ops.size();

  if (traced) {
    Tally tally;
    AddToTally(stream, n, &tally);
    const Expected expected{n, &tally};
    // A traced round as the reference, then kPassPairs pairs of an
    // untraced and a traced round in alternating order: every traced
    // round's counts must repeat the reference's exactly, and each
    // pair gives one overhead sample.
    WriteRecord record;
    StorageTrace first;
    RunWrites(db.get(), stream, kIngestRefreshEvery, &record, &first, out);
    StorageTrace second;
    std::unique_ptr<Esdb> twin;
    std::vector<double> overheads;
    double traced_wall = 0;
    for (int pair = 0; pair < kPassPairs; ++pair) {
      double untraced_wall = 0;
      for (int half = 0; half < 2; ++half) {
        // Odd pairs run the traced round first.
        if ((half == 0) == (pair % 2 == 0)) {
          twin = std::make_unique<Esdb>(ClusterOptions(false));
          untraced_wall = RunWrites(twin.get(), stream, kIngestRefreshEvery,
                                    &record, nullptr, out);
        } else {
          db = std::make_unique<Esdb>(ClusterOptions(false));
          second = StorageTrace();
          traced_wall = RunWrites(db.get(), stream, kIngestRefreshEvery,
                                  &record, &second, out);
        }
      }
      overheads.push_back(SafeDiv(traced_wall - untraced_wall, untraced_wall) * 100);
      if (!first.SameCounts(second)) {
        out->Mismatch("ingest write-path counts differ between two replays");
      }
    }
    LayerInputs in;
    in.storage = second;
    in.stream_user_bytes = stream.user_bytes;
    in.stream_wall_s = traced_wall;
    in.passes = TracedPasses(db.get(), twin.get(),
                             MakeQueries(stream, kTracedRounds, seed), expected,
                             out);
    in.rule_entries = db->dynamic_routing()->rules().TotalEntries();
    in.write_trace_overhead_pct = Median(overheads);
    RunGates(db.get(), stream, tally, seed, out);
    EmitLayerMetrics(&run.metrics, in);
    return run;
  }

  // The rounds of a stream (set-up, writes, read-back pass) are the
  // same work on the same starting state, so they differ only by the
  // host's phase. The read-back follows the writes so that reads and
  // writes sample the same stretch of host time.
  std::vector<StreamSamples> streams(kIngestStreams);
  size_t k = 0;
  for (size_t round = 0;; ++round) {
    k = round % kIngestStreams;
    if (round > 0) set_up(k);
    StreamSamples& s = streams[k];
    if (round < kIngestStreams) {
      AddToTally(stream, n, &s.tally);
      s.queries = MakeQueries(stream, kReadBackRounds, StreamSeed(seed, k));
    }
    RunWrites(db.get(), stream, kIngestRefreshEvery, &s.record, nullptr, out);
    RunQueryPass(db.get(), s.queries, Expected{n, &s.tally}, s.latency_us, out);
    if (Now() >= deadline && round + 1 >= kMinIngestRounds &&
        k + 1 == kIngestStreams) {
      break;
    }
  }
  RunGates(db.get(), stream, streams[k].tally, seed, out);
  WriteRecord record;
  ByRound latency_us[kNumClasses];
  PoolStreams(streams, &record, latency_us);

  // Set-up time: the median of the fastest fifth of the set-ups.
  const std::vector<double> fast_setups = FastestRuns({setup_s}, kFastShare);
  Metrics* m = &run.metrics;
  m->Add("setup_s", Median(fast_setups), "s");
  m->Add("bytes_per_user_byte",
         double(db->SizeBreakdownTotal().total()) / stream.user_bytes, "ratio");
  m->Add("peak_rss_mb", PeakRssMb(), "MB");
  EmitWriteMetrics(m, record);
  EmitQueryMetrics(m, latency_us);
  return run;
}

// Builds the corpus query preloads: kCorpusDocs inserts into a cluster
// with physical replicas, through the closed-loop write path
// (RefreshAll with its replication round, then Flush, every
// kLoadRefreshEvery acks), so the corpus is refreshed, merged,
// replicated and flushed.
struct Corpus {
  WriteStream stream;
  std::unique_ptr<Esdb> db;
  double load_wall_s = 0;
};

void LoadCorpus(uint64_t seed, size_t k, WriteRecord* record,
                StorageTrace* trace, Corpus* corpus, Outcome* out) {
  corpus->db.reset();
  esdb::WorkloadGenerator gen(GeneratorOptions(StreamSeed(seed, k)));
  corpus->stream = MakeStream(&gen, kCorpusDocs, 0, HotspotShift(seed, k));
  corpus->db = std::make_unique<Esdb>(ClusterOptions(true));
  corpus->load_wall_s = RunWrites(corpus->db.get(), corpus->stream,
                                  kLoadRefreshEvery, record, trace, out);
}

// query: one client, read-only closed loop over the preloaded corpus,
// round-robin over the four classes, subqueries run serially in the
// client thread (README.md: a subquery pool made the tails swing
// several-fold run to run on this benchmark's host). The write
// metrics are those of the corpus loads.
RunResult QueryWorkload(uint64_t seed, double seconds, bool traced) {
  RunResult run;
  Outcome* out = &run.outcome;
  Corpus corpus;
  if (traced) {
    // Two traced loads whose counts must repeat; the first cluster is
    // the untraced twin of the read-only passes.
    StorageTrace first, second;
    WriteRecord record;
    LoadCorpus(seed, 0, &record, &first, &corpus, out);
    const esdb::ReplicationStats first_copies =
        corpus.db->TotalReplicationStats();
    const std::unique_ptr<Esdb> twin = std::move(corpus.db);
    LoadCorpus(seed, 0, &record, &second, &corpus, out);
    const esdb::ReplicationStats copies = corpus.db->TotalReplicationStats();
    if (!first.SameCounts(second) ||
        first_copies.bytes_copied != copies.bytes_copied ||
        first_copies.segments_copied != copies.segments_copied) {
      out->Mismatch("corpus load counts differ between two replays");
    }
    Tally tally;
    AddToTally(corpus.stream, kCorpusDocs, &tally);
    LayerInputs in;
    in.storage = second;
    in.stream_user_bytes = corpus.stream.user_bytes;
    in.stream_wall_s = corpus.load_wall_s;
    in.passes = TracedPasses(corpus.db.get(), twin.get(),
                             MakeQueries(corpus.stream, kTracedRounds, seed),
                             Expected{kCorpusDocs, &tally}, out);
    in.rule_entries = corpus.db->dynamic_routing()->rules().TotalEntries();
    in.replication_bytes = double(copies.bytes_copied);
    in.replication_user_bytes = corpus.stream.user_bytes;
    in.segments_copied = copies.segments_copied;
    RunGates(corpus.db.get(), corpus.stream, tally, seed, out);
    EmitLayerMetrics(&run.metrics, in);
    return run;
  }

  // kCorpusLoads load + query phases, over the streams in turn: each
  // load is timed as set-up and feeds the write metrics, then a share
  // of the window runs passes of the same ops over that corpus.
  // Spreading both over the run keeps them in step with the host's
  // drift.
  std::vector<double> setup_s;
  std::vector<StreamSamples> streams(kQueryStreams);
  for (size_t load = 0; load < kCorpusLoads; ++load) {
    const size_t k = load % kQueryStreams;
    StreamSamples& s = streams[k];
    const double t = Now();
    LoadCorpus(seed, k, &s.record, nullptr, &corpus, out);
    setup_s.push_back(Now() - t);
    if (load < kQueryStreams) {
      AddToTally(corpus.stream, kCorpusDocs, &s.tally);
      s.queries = MakeQueries(corpus.stream, kPassRounds, StreamSeed(seed, k));
    }
    const double phase_end = Now() + seconds / kCorpusLoads;
    for (size_t pass = 0; pass < kMinPassesPerLoad || Now() < phase_end; ++pass) {
      RunQueryPass(corpus.db.get(), s.queries, Expected{kCorpusDocs, &s.tally},
                   s.latency_us, out);
    }
  }
  RunGates(corpus.db.get(), corpus.stream,
           streams[(kCorpusLoads - 1) % kQueryStreams].tally, seed, out);
  WriteRecord record;
  ByRound latency_us[kNumClasses];
  PoolStreams(streams, &record, latency_us);

  Metrics* m = &run.metrics;
  m->Add("setup_s", Median(setup_s), "s");
  m->Add("bytes_per_user_byte",
         double(corpus.db->SizeBreakdownTotal().total()) /
             corpus.stream.user_bytes,
         "ratio");
  m->Add("peak_rss_mb", PeakRssMb(), "MB");
  EmitWriteMetrics(m, record);
  EmitQueryMetrics(m, latency_us);
  return run;
}

// --- Entry point ------------------------------------------------------------

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (seconds <= 0 || (trace != 0 && trace != 1)) Die("bad --seconds/--trace");
  RunResult run;
  if (workload == "ingest") {
    run = Ingest(seed, seconds, trace == 1);
  } else if (workload == "query") {
    run = QueryWorkload(seed, seconds, trace == 1);
  } else {
    Die("usage: perfbench --workload {ingest,query} --seed N "
        "--seconds S --trace {0,1}");
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              run.outcome.correct ? "true" : "false",
              static_cast<unsigned long long>(run.outcome.attempted),
              static_cast<unsigned long long>(run.outcome.failed),
              run.metrics.Json().c_str());
  return run.outcome.correct && run.outcome.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
