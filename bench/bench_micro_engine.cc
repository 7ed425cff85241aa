// Micro-benchmarks of the engine primitives (google-benchmark):
// posting-list algebra, segment building, index scans, routing, the
// SQL front end and end-to-end shard queries. These are the unit
// costs underlying the figure-level benches.
//
// Run with --verify [--quick] to check a scan-heavy query set instead:
// each query's result must equal, byte for byte, the answer recomputed
// from the cluster's decoded stored documents (non-zero exit on any
// divergence); each query is also timed, and a JSON summary is written
// to BENCH_micro_engine.json. Without --verify the google-benchmark
// suite runs.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <map>

#include "bench_common.h"
#include "cluster/esdb.h"
#include "common/random.h"
#include "common/zipf.h"
#include "query/dsl.h"
#include "query/normalize.h"
#include "query/optimizer.h"
#include "query/parser.h"
#include "routing/router.h"
#include "storage/shard_store.h"
#include "support/reference_eval.h"
#include "workload/generator.h"

namespace esdb {
namespace {

// --- Posting lists ------------------------------------------------------

PostingList MakePostings(size_t n, uint32_t stride, Rng& rng) {
  PostingList out;
  DocId id = rng.Next() % stride;
  for (size_t i = 0; i < n; ++i) {
    out.Append(id);
    id += 1 + DocId(rng.Uniform(stride));
  }
  return out;
}

void BM_PostingIntersect(benchmark::State& state) {
  Rng rng(1);
  const PostingList a = MakePostings(size_t(state.range(0)), 4, rng);
  const PostingList b = MakePostings(size_t(state.range(0)), 4, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PostingList::Intersect(a, b));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PostingIntersect)->Range(1 << 10, 1 << 16);

void BM_PostingUnionAll(benchmark::State& state) {
  Rng rng(2);
  std::vector<PostingList> lists;
  std::vector<const PostingList*> ptrs;
  for (int i = 0; i < state.range(0); ++i) {
    lists.push_back(MakePostings(16, 64, rng));
  }
  for (const PostingList& l : lists) ptrs.push_back(&l);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PostingList::UnionAll(ptrs));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 16);
}
BENCHMARK(BM_PostingUnionAll)->Range(1 << 4, 1 << 12);

void BM_PostingEncodeDecode(benchmark::State& state) {
  Rng rng(3);
  const PostingList list = MakePostings(size_t(state.range(0)), 8, rng);
  for (auto _ : state) {
    std::string buf;
    list.EncodeTo(&buf);
    size_t pos = 0;
    PostingList out;
    benchmark::DoNotOptimize(PostingList::DecodeFrom(buf, &pos, &out));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PostingEncodeDecode)->Range(1 << 10, 1 << 16);

// --- Workload generation & routing ---------------------------------------

void BM_ZipfSample(benchmark::State& state) {
  ZipfGenerator zipf(100000, 1.0);
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample);

void BM_RouteDynamic(benchmark::State& state) {
  DynamicSecondaryHashing routing(512);
  routing.UpdateRules([&](RuleList* rules) {
    for (int i = 0; i < state.range(0); ++i) {
      rules->Update(Micros(i * 1000), 1u << (1 + i % 6), TenantId(i + 1));
    }
  });
  Rng rng(5);
  int64_t record = 0;
  for (auto _ : state) {
    const RouteKey key{TenantId(1 + rng.Uniform(100)), record++, 500000};
    benchmark::DoNotOptimize(routing.RouteWrite(key));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(state.range(0)) + " rules");
}
BENCHMARK(BM_RouteDynamic)->Arg(0)->Arg(16)->Arg(256);

// --- Segment building (indexing cost per document) ------------------------

void BM_SegmentBuild(benchmark::State& state) {
  WorkloadGenerator::Options wopts;
  wopts.num_tenants = 1000;
  WorkloadGenerator generator(wopts);
  std::vector<Document> docs;
  for (int i = 0; i < state.range(0); ++i) {
    docs.push_back(generator.NextDocument(Micros(i)));
  }
  const IndexSpec spec = IndexSpec::TransactionLogDefault();
  for (auto _ : state) {
    SegmentBuilder builder(&spec);
    for (const Document& doc : docs) builder.Add(doc);
    benchmark::DoNotOptimize(std::move(builder).Build(1));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SegmentBuild)->Arg(1000)->Arg(8000);

// One merge of range(0) segments of range(1) transaction-log docs each,
// one doc in eight deleted: Segment::Merge (range(2) = 1) against the
// same merge done by re-indexing every live doc through GetDocument and
// SegmentBuilder (range(2) = 0), the path merges took before the
// structural merge and the reference segment_merge_test compares with.
// Items are merged (live) docs.
void BM_SegmentMerge(benchmark::State& state) {
  WorkloadGenerator::Options wopts;
  wopts.num_tenants = 1000;
  WorkloadGenerator generator(wopts);
  const IndexSpec spec = IndexSpec::TransactionLogDefault();
  std::vector<SegmentView> inputs;
  size_t live = 0;
  for (int64_t s = 0; s < state.range(0); ++s) {
    SegmentBuilder builder(&spec);
    for (int64_t i = 0; i < state.range(1); ++i) {
      builder.Add(generator.NextDocument(Micros(i)));
    }
    const uint32_t n = uint32_t(state.range(1));
    std::shared_ptr<const Tombstones> dead;
    for (DocId id = DocId(s) % 8; id < n; id += 8) {
      dead = Tombstones::WithDeleted(dead.get(), n, id);
    }
    inputs.push_back(SegmentView{std::move(builder).Build(uint64_t(s + 1)),
                                 dead, nullptr});
    live += inputs.back().num_live_docs();
  }
  const bool structural = state.range(2) != 0;
  for (auto _ : state) {
    if (structural) {
      benchmark::DoNotOptimize(Segment::Merge(inputs, spec, 100));
      continue;
    }
    SegmentBuilder builder(&spec);
    for (const SegmentView& view : inputs) {
      const PostingList ids = view.LiveDocs();
      for (DocId id : ids.ids()) builder.Add(*view.GetDocument(id));
    }
    benchmark::DoNotOptimize(std::move(builder).Build(100));
  }
  state.SetItemsProcessed(int64_t(state.iterations() * live));
  state.SetLabel(structural ? "structural" : "re-index");
}
BENCHMARK(BM_SegmentMerge)
    ->Args({2, 4, 0})
    ->Args({2, 4, 1})
    ->Args({8, 4, 0})
    ->Args({8, 4, 1})
    ->Args({2, 256, 0})
    ->Args({2, 256, 1});

void BM_SegmentEncodeDecode(benchmark::State& state) {
  WorkloadGenerator::Options wopts;
  WorkloadGenerator generator(wopts);
  const IndexSpec spec = IndexSpec::TransactionLogDefault();
  SegmentBuilder builder(&spec);
  for (int i = 0; i < 4000; ++i) {
    builder.Add(generator.NextDocument(Micros(i)));
  }
  auto segment = std::move(builder).Build(1);
  for (auto _ : state) {
    const std::string bytes = segment->Encode();
    benchmark::DoNotOptimize(Segment::Decode(bytes));
  }
  state.SetBytesProcessed(int64_t(state.iterations()) *
                          int64_t(segment->Encode().size()));
}
BENCHMARK(BM_SegmentEncodeDecode);

// --- SQL front end ---------------------------------------------------------

void BM_ParseSql(benchmark::State& state) {
  const std::string sql =
      "SELECT * FROM transaction_logs WHERE tenant_id = 10086 "
      "AND created_time BETWEEN '2021-09-16 00:00:00' AND "
      "'2021-09-17 00:00:00' AND status = 1 OR group = 666 "
      "ORDER BY created_time DESC LIMIT 100";
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParseSql(sql));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ParseSql);

void BM_SqlToDsl(benchmark::State& state) {
  const std::string sql =
      "SELECT * FROM t WHERE tenant_id = 1 AND created_time >= 5 AND "
      "created_time <= 9 AND (status = 1 OR status = 2) AND "
      "MATCH(title, 'novel')";
  for (auto _ : state) {
    benchmark::DoNotOptimize(SqlToDsl(sql));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SqlToDsl);

void BM_PlanQuery(benchmark::State& state) {
  auto query = ParseSql(
      "SELECT * FROM t WHERE tenant_id = 1 AND created_time BETWEEN 1 AND "
      "99 AND status = 1 AND flag = 0 AND group IN (1, 2, 3)");
  const IndexSpec spec = IndexSpec::TransactionLogDefault();
  for (auto _ : state) {
    auto normalized = NormalizeForPlanning(query->where->Clone());
    benchmark::DoNotOptimize(
        PlanWhere(normalized.get(), spec, PlannerOptions{}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlanQuery);

// --- End-to-end shard query -------------------------------------------------

class ShardQueryFixture : public benchmark::Fixture {
 public:
  void SetUp(::benchmark::State& state) override {
    if (db_ != nullptr) return;
    Esdb::Options options;
    options.num_shards = 8;
    options.routing = RoutingKind::kHash;
    options.store.refresh_doc_count = 8192;
    db_ = new Esdb(std::move(options));
    WorkloadGenerator::Options wopts;
    wopts.num_tenants = 1000;
    WorkloadGenerator generator(wopts);
    for (int i = 0; i < 50000; ++i) {
      (void)db_->Insert(generator.NextDocument(Micros(i) * kMicrosPerMilli));
    }
    db_->RefreshAll();
    (void)state;
  }

  static Esdb* db_;
};

Esdb* ShardQueryFixture::db_ = nullptr;

BENCHMARK_F(ShardQueryFixture, PointLookup)(benchmark::State& state) {
  Rng rng(9);
  for (auto _ : state) {
    const std::string sql = "SELECT * FROM t WHERE record_id = " +
                            std::to_string(1 + rng.Uniform(50000));
    benchmark::DoNotOptimize(db_->ExecuteSql(sql));
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK_F(ShardQueryFixture, TenantTimeRange)(benchmark::State& state) {
  Rng rng(10);
  for (auto _ : state) {
    const std::string sql =
        "SELECT * FROM t WHERE tenant_id = " +
        std::to_string(1 + rng.Uniform(100)) +
        " AND created_time >= 0 ORDER BY created_time DESC LIMIT 100";
    benchmark::DoNotOptimize(db_->ExecuteSql(sql));
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK_F(ShardQueryFixture, FullTextCount)(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(db_->ExecuteSql(
        "SELECT COUNT(*) FROM t WHERE MATCH(title, 'novel')"));
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK_F(ShardQueryFixture, GroupByStatus)(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(db_->ExecuteSql(
        "SELECT status, COUNT(*) FROM t WHERE tenant_id = 1 "
        "GROUP BY status"));
  }
  state.SetItemsProcessed(state.iterations());
}

}  // namespace

// --- Result check against stored documents (--verify) ----------------------

namespace {

struct LabeledSql {
  const char* label;
  std::string sql;
};

// Scan-heavy shapes: every query funnels candidates through doc-value
// filtering (the filter programs' typed fast paths and generic slot
// loop), spanning range, IN, negation, cross-type, sub-attribute,
// aggregate, group-by and late-materialized row fetches.
std::vector<LabeledSql> EngineQuerySet() {
  return {
      {"count_amount_band",
       "SELECT COUNT(*) FROM t WHERE amount >= 250.0 AND amount < 750.0"},
      {"count_int_in_flag",
       "SELECT COUNT(*) FROM t WHERE region IN (1, 3, 5, 7) AND flag = 1"},
      {"count_negated_status",
       "SELECT COUNT(*) FROM t WHERE status != 0 AND quantity >= 5"},
      {"count_cross_type",
       "SELECT COUNT(*) FROM t WHERE quantity <= 2.5 AND channel = 3"},
      {"count_sub_attribute",
       "SELECT COUNT(*) FROM t WHERE attributes.attr1 = 'v3'"},
      {"rows_selective_scan",
       "SELECT * FROM t WHERE amount >= 900.0 AND status = 2 "
       "ORDER BY created_time DESC LIMIT 50"},
      {"rows_tenant_filters",
       "SELECT * FROM t WHERE tenant_id = 7 AND created_time >= 0 AND "
       "amount >= 100.0 AND quantity <= 8 "
       "ORDER BY created_time DESC LIMIT 100"},
      {"sum_group_by_region",
       "SELECT SUM(amount) FROM t WHERE quantity >= 2 GROUP BY region"},
      {"count_group_by_status", "SELECT COUNT(*) FROM t GROUP BY status"},
      {"min_amount_channel",
       "SELECT MIN(amount) FROM t WHERE channel = 3 AND flag = 0"},
      {"max_amount_region",
       "SELECT MAX(amount) FROM t WHERE region <= 15 AND status >= 3"},
  };
}

std::string ValueDigest(const Value& v) {
  // Value::operator== compares across int/double (1 == 1.0), so the
  // digest tags the concrete type to catch drift it would mask.
  return std::to_string(int(v.type())) + ":" + v.EncodeSortable();
}

// Byte-exact fingerprint of a query result: row order, row bytes,
// aggregate types and group contents all participate. The match count
// is left out: an early-terminated plan reports a lower bound, which
// the caller checks on its own.
std::string ResultDigest(const QueryResult& r) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%llu|%.17g|",
                (unsigned long long)r.agg_count, r.agg_sum);
  std::string d = buf;
  if (r.agg_min) d += "min=" + ValueDigest(*r.agg_min) + "|";
  if (r.agg_max) d += "max=" + ValueDigest(*r.agg_max) + "|";
  for (const auto& [key, gs] : r.groups) {
    std::snprintf(buf, sizeof(buf), "=%llu|%.17g|",
                  (unsigned long long)gs.count, gs.sum);
    d += "g:" + ValueDigest(key) + buf;
    if (gs.min) d += "gmin=" + ValueDigest(*gs.min) + "|";
    if (gs.max) d += "gmax=" + ValueDigest(*gs.max) + "|";
  }
  for (const Document& doc : r.rows) {
    d += doc.Serialize();
    d.push_back('\n');
  }
  return d;
}

// The answer recomputed from stored documents alone: every shard's
// pinned snapshot is walked in ordinal, segment and doc-id order, each
// live doc is decoded with GetDocument and WHERE is evaluated on it
// (tests/support/reference_eval.h). Aggregates fold per doc within a
// shard and merge across shards in order, as the coordinator merges
// them; rows sort stably, then offset and limit apply (every query in
// the set selects *). Hash routing keeps a tenant on one shard, so walking every
// shard visits a tenant query's rows in its fan-out order.
QueryResult ReferenceResult(Esdb* db, const Query& query) {
  QueryResult out;
  std::vector<Document> rows;
  for (ShardId shard = 0; shard < db->num_shards(); ++shard) {
    QueryResult local;
    const SegmentSnapshot snapshot = db->shard(shard)->Snapshot();
    for (const SegmentView& view : *snapshot) {
      for (DocId id = 0; id < DocId(view.num_docs()); ++id) {
        if (view.IsDeleted(id)) continue;
        auto doc = view.GetDocument(id);
        if (!doc.ok()) {
          std::fprintf(stderr, "GetDocument failed: %s\n",
                       doc.status().ToString().c_str());
          std::exit(1);
        }
        if (query.where != nullptr &&
            !EvalWhereOnDocument(*query.where, *doc)) {
          continue;
        }
        if (query.agg == AggFunc::kNone) {
          ++local.total_matched;
          rows.push_back(std::move(*doc));
          continue;
        }
        ReferenceFoldDocument(query, *doc, &local);
      }
    }
    ReferenceMergeShard(local, &out);
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [&](const Document& a, const Document& b) {
                     return ReferenceOrderLess(query, a, b);
                   });
  const size_t skip = std::min(size_t(query.offset), rows.size());
  rows.erase(rows.begin(), rows.begin() + long(skip));
  if (query.limit >= 0 && int64_t(rows.size()) > query.limit) {
    rows.resize(size_t(query.limit));
  }
  out.rows = std::move(rows);
  return out;
}

struct QueryRun {
  const char* label = nullptr;
  double seconds = 0;
  bool identical = true;
  uint64_t total_matched = 0;
  uint64_t batches_evaluated = 0;
  double selectivity = 0;
};

QueryResult MustExecute(Esdb* db, const std::string& sql) {
  auto result = db->ExecuteSql(sql);
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n  %s\n",
                 result.status().message().c_str(), sql.c_str());
    std::exit(1);
  }
  return *std::move(result);
}

double TimeQuery(Esdb* db, const std::string& sql, int rounds) {
  bench::Stopwatch watch;
  for (int i = 0; i < rounds; ++i) {
    QueryResult r = MustExecute(db, sql);
    benchmark::DoNotOptimize(r.total_matched);
  }
  return watch.ElapsedSeconds();
}

void WriteVerifyJson(bool quick, uint64_t docs, int rounds, bool identical,
                     const std::vector<QueryRun>& runs) {
  const char* path = "BENCH_micro_engine.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"micro_engine\",\n");
  std::fprintf(f, "  \"mode\": \"verify\",\n  \"quick\": %s,\n",
               quick ? "true" : "false");
  std::fprintf(f, "  \"docs\": %llu,\n  \"rounds\": %d,\n",
               (unsigned long long)docs, rounds);
  std::fprintf(f, "  \"identical_to_stored_docs\": %s,\n",
               identical ? "true" : "false");
  std::fprintf(f, "  \"queries\": [\n");
  for (size_t i = 0; i < runs.size(); ++i) {
    const QueryRun& q = runs[i];
    std::fprintf(f,
                 "    {\"label\": \"%s\", \"matched\": %llu, "
                 "\"seconds\": %.6f, \"batches_evaluated\": %llu, "
                 "\"selectivity\": %.4f, \"identical\": %s}%s\n",
                 q.label, (unsigned long long)q.total_matched, q.seconds,
                 (unsigned long long)q.batches_evaluated, q.selectivity,
                 q.identical ? "true" : "false",
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

int RunVerify(bool quick) {
  const uint64_t docs = quick ? 12000 : 50000;
  const int rounds = quick ? 3 : 20;

  Esdb::Options options;
  options.num_shards = 8;
  options.routing = RoutingKind::kHash;
  options.store.refresh_doc_count = 8192;
  // Timed rounds repeat each query; the filter cache would replay the
  // first round's filtering instead of timing it.
  options.use_filter_cache = false;
  Esdb db(std::move(options));

  WorkloadGenerator::Options wopts;
  wopts.num_tenants = 1000;
  WorkloadGenerator generator(wopts);
  for (uint64_t i = 0; i < docs; ++i) {
    (void)db.Insert(generator.NextDocument(Micros(i) * kMicrosPerMilli));
  }
  db.RefreshAll();

  bench::PrintHeader("micro_engine: scan-heavy queries vs stored documents (" +
                     std::to_string(docs) + " docs, " +
                     std::to_string(rounds) + " rounds)");
  std::printf("%-24s %10s %10s %8s %6s %s\n", "query", "qps", "matched",
              "batches", "sel", "identical");

  bool all_identical = true;
  std::vector<QueryRun> runs;
  for (const LabeledSql& q : EngineQuerySet()) {
    QueryRun run;
    run.label = q.label;
    auto query = ParseSql(q.sql);
    if (!query.ok()) {
      std::fprintf(stderr, "parse failed: %s\n", q.sql.c_str());
      return 1;
    }
    const QueryResult got = MustExecute(&db, q.sql);
    const QueryResult want = ReferenceResult(&db, *query);
    run.total_matched = got.total_matched;
    run.identical =
        ResultDigest(got) == ResultDigest(want) &&
        (got.total_matched_exact ? got.total_matched == want.total_matched
                                 : got.total_matched <= want.total_matched);
    all_identical = all_identical && run.identical;
    const ExecStats stats = db.last_stats();
    run.batches_evaluated = stats.batches_evaluated;
    run.selectivity = stats.Selectivity();
    run.seconds = TimeQuery(&db, q.sql, rounds);

    std::printf("%-24s %10.0f %10llu %8llu %6.2f %s\n", run.label,
                run.seconds > 0 ? rounds / run.seconds : 0,
                (unsigned long long)run.total_matched,
                (unsigned long long)run.batches_evaluated, run.selectivity,
                run.identical ? "yes" : "NO");
    runs.push_back(run);
  }
  std::printf("%s\n", all_identical ? "results match stored documents"
                                    : "RESULTS DIVERGED FROM STORED DOCUMENTS");
  WriteVerifyJson(quick, docs, rounds, all_identical, runs);
  return all_identical ? 0 : 1;
}

}  // namespace
}  // namespace esdb

int main(int argc, char** argv) {
  bool verify = false;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--verify") == 0) {
      verify = true;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    }
  }
  if (verify) return esdb::RunVerify(quick);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
