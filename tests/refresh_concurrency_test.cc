// Concurrency tests for epoch-published segment snapshots: one
// maintenance thread hammers RefreshAll (refresh + merge, optionally
// fanned out over the maintenance pool) while client threads query.
// Every query must observe a consistent per-shard epoch — a row count
// bracketed by refresh boundaries, never a torn segment list. The
// balancing case does the same for copy-on-write rule lists. Run
// under TSan in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/esdb.h"

namespace esdb {
namespace {

Esdb::Options HammerOptions(uint32_t query_threads,
                            uint32_t maintenance_threads) {
  Esdb::Options options;
  options.num_shards = 8;
  options.routing = RoutingKind::kHash;
  options.store.refresh_doc_count = 0;  // manual refresh only
  options.store.merge.max_segments = 4;  // force merges during the run
  options.query_threads = query_threads;
  options.maintenance_threads = maintenance_threads;
  return options;
}

Document MakeDoc(int64_t id) {
  Document doc;
  doc.Set(kFieldTenantId, Value(int64_t(1 + id % 20)));
  doc.Set(kFieldRecordId, Value(id));
  doc.Set(kFieldCreatedTime, Value(id));
  doc.Set("status", Value(id % 5));
  return doc;
}

// One writer inserts batches and refreshes; kReaders threads run
// broadcast counts and tenant-scoped queries throughout. Invariant:
// a count observed by a reader is >= the total published before the
// query began and <= the total inserted by the time it finished
// (fresh record ids only, so counts are monotone in refreshes).
void RunHammer(uint32_t query_threads, uint32_t maintenance_threads) {
  Esdb db(HammerOptions(query_threads, maintenance_threads));

  constexpr int kRounds = 12;
  constexpr int kBatch = 240;
  constexpr int kReaders = 4;

  std::atomic<uint64_t> published_total{0};  // visible after RefreshAll
  std::atomic<uint64_t> inserted_total{0};   // upper bound on visibility
  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::atomic<int> failures{0};

  std::thread writer([&] {
    int64_t next_id = 0;
    for (int round = 0; round < kRounds; ++round) {
      for (int i = 0; i < kBatch; ++i) {
        if (!db.Insert(MakeDoc(next_id++)).ok()) {
          failures.fetch_add(1);
        }
      }
      inserted_total.store(uint64_t(next_id), std::memory_order_release);
      db.RefreshAll();  // refresh + merge, possibly on the pool
      published_total.store(uint64_t(next_id), std::memory_order_release);
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!done.load(std::memory_order_acquire)) {
        const uint64_t low = published_total.load(std::memory_order_acquire);
        auto count = db.ExecuteSql("SELECT COUNT(*) FROM t");
        const uint64_t high = inserted_total.load(std::memory_order_acquire);
        if (!count.ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (count->agg_count < low || count->agg_count > high) {
          violations.fetch_add(1);
        }
        // Tenant-scoped path (consecutive-shard fan-out) as well.
        auto rows = db.ExecuteSql(
            "SELECT * FROM t WHERE tenant_id = " + std::to_string(1 + r) +
            " ORDER BY created_time DESC LIMIT 10");
        if (!rows.ok()) failures.fetch_add(1);
      }
    });
  }

  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(violations.load(), 0);

  // Everything published; a final query sees exactly the full set.
  auto final_count = db.ExecuteSql("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(final_count.ok());
  EXPECT_EQ(final_count->agg_count, uint64_t(kRounds * kBatch));
}

TEST(RefreshConcurrencyTest, RefreshVsSerialQueries) {
  RunHammer(/*query_threads=*/0, /*maintenance_threads=*/4);
}

TEST(RefreshConcurrencyTest, RefreshVsParallelQueries) {
  RunHammer(/*query_threads=*/2, /*maintenance_threads=*/4);
}

TEST(RefreshConcurrencyTest, SerialRefreshVsParallelQueries) {
  RunHammer(/*query_threads=*/2, /*maintenance_threads=*/0);
}

// Same hammer against a replicated cluster: RefreshAll additionally
// runs the physical replication round per shard on the pool.
TEST(RefreshConcurrencyTest, ReplicatedRefreshVsQueries) {
  Esdb::Options options = HammerOptions(/*query_threads=*/2,
                                        /*maintenance_threads=*/4);
  options.with_replicas = true;
  Esdb db(options);

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    int64_t next_id = 0;
    for (int round = 0; round < 8; ++round) {
      for (int i = 0; i < 160; ++i) {
        if (!db.Insert(MakeDoc(next_id++)).ok()) failures.fetch_add(1);
      }
      db.RefreshAll();
    }
    done.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        auto count = db.ExecuteSql("SELECT COUNT(*) FROM t");
        if (!count.ok()) failures.fetch_add(1);
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  auto final_count = db.ExecuteSql("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(final_count.ok());
  EXPECT_EQ(final_count->agg_count, uint64_t(8 * 160));
  // Replication actually ran under the concurrent load.
  const ReplicationStats stats = db.TotalReplicationStats();
  EXPECT_GT(stats.rounds, 0u);
  EXPECT_GT(stats.segments_copied, 0u);
}

// Parallel RefreshAll must produce byte-identical state to serial:
// same insert stream into two clusters, one refreshed serially and
// one on an 8-thread maintenance pool, must agree on every per-shard
// doc count and on query results.
TEST(RefreshConcurrencyTest, ParallelRefreshMatchesSerial) {
  Esdb serial(HammerOptions(0, 0));
  Esdb parallel(HammerOptions(0, 8));
  for (int round = 0; round < 6; ++round) {
    for (int64_t i = 0; i < 300; ++i) {
      const int64_t id = round * 300 + i;
      ASSERT_TRUE(serial.Insert(MakeDoc(id)).ok());
      ASSERT_TRUE(parallel.Insert(MakeDoc(id)).ok());
    }
    serial.RefreshAll();
    parallel.RefreshAll();
  }
  EXPECT_EQ(serial.ShardDocCounts(), parallel.ShardDocCounts());
  for (uint32_t s = 0; s < serial.num_shards(); ++s) {
    EXPECT_EQ(serial.shard(ShardId(s))->num_segments(),
              parallel.shard(ShardId(s))->num_segments())
        << "shard " << s;
  }
  const std::string sql =
      "SELECT * FROM t WHERE status = 2 ORDER BY created_time DESC LIMIT 40";
  auto a = serial.ExecuteSql(sql);
  auto b = parallel.ExecuteSql(sql);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->total_matched, b->total_matched);
  ASSERT_EQ(a->rows.size(), b->rows.size());
  for (size_t i = 0; i < a->rows.size(); ++i) {
    EXPECT_EQ(a->rows[i], b->rows[i]) << "row " << i;
  }
}

// Balancing concurrent with writes and queries: one thread runs
// RunBalanceCycle, committing new secondary hashing rules for the hot
// tenant, while a writer inserts a skewed stream and readers route
// tenant-scoped and broadcast queries. Rule lists are published
// copy-on-write, so routing never reads a list being updated, and a
// tenant-scoped count covers every write published before it began.
TEST(RefreshConcurrencyTest, BalanceCycleVsWritesAndQueries) {
  Esdb::Options options = HammerOptions(/*query_threads=*/2,
                                        /*maintenance_threads=*/0);
  options.routing = RoutingKind::kDynamic;
  options.balancer.target_share_per_shard = 0.05;
  options.balancer.max_offset = 8;
  Esdb db(options);

  constexpr int kRounds = 12;
  constexpr int kBatch = 240;
  const auto tenant_of = [](int64_t id) -> int64_t {
    return id % 10 < 7 ? 1 : 2 + id % 19;  // tenant 1 takes 70%
  };

  std::atomic<int64_t> next_created{0};       // balancer's effective time
  std::atomic<uint64_t> hot_published{0};     // tenant 1, refreshed
  std::atomic<uint64_t> total_inserted{0};
  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::atomic<int> failures{0};
  std::atomic<size_t> rules_committed{0};

  std::thread writer([&] {
    int64_t next_id = 0;
    uint64_t hot = 0;
    for (int round = 0; round < kRounds; ++round) {
      for (int i = 0; i < kBatch; ++i) {
        Document doc = MakeDoc(next_id);
        doc.Set(kFieldTenantId, Value(tenant_of(next_id)));
        if (tenant_of(next_id) == 1) ++hot;
        next_created.store(++next_id, std::memory_order_release);
        if (!db.Insert(std::move(doc)).ok()) failures.fetch_add(1);
      }
      total_inserted.store(uint64_t(next_id), std::memory_order_release);
      db.RefreshAll();
      hot_published.store(hot, std::memory_order_release);
    }
    done.store(true, std::memory_order_release);
  });

  std::thread balancer([&] {
    int64_t last_cycle = 0;
    while (!done.load(std::memory_order_acquire)) {
      const int64_t created = next_created.load(std::memory_order_acquire);
      // Windows below the balancer's minimum sample propose nothing.
      if (created - last_cycle < 200) {
        std::this_thread::yield();
        continue;
      }
      last_cycle = created;
      // Rules take effect after every record created so far.
      rules_committed.fetch_add(db.RunBalanceCycle(Micros(created + 1)));
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        const uint64_t low = hot_published.load(std::memory_order_acquire);
        auto hot = db.ExecuteSql("SELECT COUNT(*) FROM t WHERE tenant_id = 1");
        if (!hot.ok()) {
          failures.fetch_add(1);
        } else if (hot->agg_count < low) {
          violations.fetch_add(1);
        }
        auto groups = db.ExecuteSql(
            "SELECT status, COUNT(*) FROM t GROUP BY status");
        if (!groups.ok()) {
          failures.fetch_add(1);
          continue;
        }
        uint64_t grouped = 0;
        for (const auto& [key, group] : groups->groups) grouped += group.count;
        if (grouped > total_inserted.load(std::memory_order_acquire)) {
          violations.fetch_add(1);
        }
      }
    });
  }

  writer.join();
  balancer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(violations.load(), 0);
  // The hot tenant was spread while the load ran...
  EXPECT_GT(rules_committed.load(), 0u);
  EXPECT_GT(db.dynamic_routing()->rules().MaxOffset(1), 1u);
  // ...and its read fan-out still finds every one of its records.
  auto hot = db.ExecuteSql("SELECT COUNT(*) FROM t WHERE tenant_id = 1");
  ASSERT_TRUE(hot.ok());
  EXPECT_EQ(hot->agg_count, hot_published.load());
  auto all = db.ExecuteSql("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->agg_count, uint64_t(kRounds * kBatch));
}

// A multi-node cluster's RefreshAll fans out the refresh+replication
// rounds the same way; node-level doc placement must match the serial
// run.
TEST(RefreshConcurrencyTest, DistributedParallelRefreshMatchesSerial) {
  Esdb::Options base;
  base.num_shards = 16;
  base.routing = RoutingKind::kHash;
  base.store.refresh_doc_count = 0;
  base.with_replicas = true;

  Esdb serial(base);
  Esdb::Options par = base;
  par.maintenance_threads = 4;
  Esdb parallel(par);
  for (Esdb* db : {&serial, &parallel}) {
    ASSERT_TRUE(db->AddNode(NodeId(1)).ok());
    ASSERT_TRUE(db->AddNode(NodeId(2)).ok());
  }
  for (int64_t i = 0; i < 800; ++i) {
    ASSERT_TRUE(serial.Insert(MakeDoc(i)).ok());
    ASSERT_TRUE(parallel.Insert(MakeDoc(i)).ok());
    if (i % 200 == 199) {
      serial.RefreshAll();
      parallel.RefreshAll();
    }
  }
  serial.RefreshAll();
  parallel.RefreshAll();
  EXPECT_EQ(serial.TotalDocs(), parallel.TotalDocs());
  EXPECT_EQ(serial.DocsByNode(), parallel.DocsByNode());
}

}  // namespace
}  // namespace esdb
