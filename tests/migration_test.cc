// Live shard migration (DESIGN.md §13): the per-shard state machine
// Idle -> Copying -> DualWrite -> CutOver -> Done/Aborted, driven on
// a real multi-node Esdb cluster. The headline properties:
//
//  * reader-visible row counts never change across any state-machine
//    step, including the cutover swap itself;
//  * during dual-write the target is op-for-op identical to the
//    source (divergence oracle over the full live set);
//  * a failure injected at EVERY migrate/* fail-point edge — start,
//    bulk copy, delta replay, mirror write, mid-cutover — loses zero
//    acknowledged writes (replay oracle against a reference map);
//  * a seeded randomized fuzzer interleaves DML, refreshes, node
//    churn and fault-injected migrations and replays the acknowledged
//    op history as the oracle.
//
// Fail-point coverage for the migrate/* sites is enforced by the
// crash-recovery matrix (crash_recovery_test.cc kMatrixSites) which
// names the MigrationFailMatrix scenarios below.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "cluster/esdb.h"
#include "common/failpoint.h"
#include "common/random.h"

namespace esdb {
namespace {

Esdb::Options SmallCluster() {
  Esdb::Options options;
  options.num_shards = 16;
  options.routing = RoutingKind::kDynamic;
  options.store.refresh_doc_count = 0;
  options.with_replicas = true;
  return options;
}

Document MakeLog(int64_t tenant, int64_t record, int64_t time,
                 int64_t status = 0) {
  Document doc;
  doc.Set(kFieldTenantId, Value(tenant));
  doc.Set(kFieldRecordId, Value(record));
  doc.Set(kFieldCreatedTime, Value(time));
  doc.Set("status", Value(status));
  return doc;
}

WriteOp MakeOp(OpType type, int64_t tenant, int64_t record, int64_t time,
               int64_t status = 0) {
  WriteOp op;
  op.type = type;
  op.doc = MakeLog(tenant, record, time, status);
  return op;
}

// Divergence oracle: every record either lives identically in both
// stores or in neither.
void ExpectSameLiveSet(const ShardStore& a, const ShardStore& b,
                       int64_t max_record) {
  EXPECT_EQ(a.num_live_docs() + a.buffered_docs(),
            b.num_live_docs() + b.buffered_docs());
  for (int64_t record = 0; record <= max_record; ++record) {
    auto da = a.GetByRecordId(record);
    auto db = b.GetByRecordId(record);
    ASSERT_EQ(da.ok(), db.ok()) << "record " << record;
    if (da.ok()) {
      EXPECT_EQ(*da, *db) << "record " << record;
    }
  }
}

class MigrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Esdb>(SmallCluster());
    for (NodeId node = 1; node <= 4; ++node) {
      ASSERT_TRUE(db_->AddNode(node).ok());
    }
    for (int64_t i = 0; i < 200; ++i) {
      ASSERT_TRUE(db_->Insert(MakeLog(1 + i % 5, i, i, i % 3)).ok());
    }
    db_->RefreshAll();
  }

  uint64_t Count(const std::string& where) {
    auto r = db_->ExecuteSql("SELECT COUNT(*) FROM t WHERE " + where);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r->agg_count;
  }

  // The busiest shard (most live docs) — a meaty migration subject.
  ShardId BusiestShard() {
    ShardId best = 0;
    size_t best_docs = 0;
    for (uint32_t shard = 0; shard < 16; ++shard) {
      const auto source = db_->MigrationSource(shard);
      const size_t docs = source->primary()->num_live_docs();
      if (docs > best_docs) {
        best_docs = docs;
        best = shard;
      }
    }
    return best;
  }

  // Some node other than the shard's current primary.
  NodeId OtherNode(ShardId shard) {
    const NodeId from = db_->PrimaryNodeOf(shard);
    for (NodeId node = 1; node <= 4; ++node) {
      if (node != from) return node;
    }
    return from;
  }

  std::unique_ptr<Esdb> db_;
};

TEST(MigrationPhaseNames, CoverEveryPhase) {
  EXPECT_STREQ(MigrationPhaseName(MigrationPhase::kIdle), "Idle");
  EXPECT_STREQ(MigrationPhaseName(MigrationPhase::kCopying), "Copying");
  EXPECT_STREQ(MigrationPhaseName(MigrationPhase::kDualWrite), "DualWrite");
  EXPECT_STREQ(MigrationPhaseName(MigrationPhase::kCutOver), "CutOver");
  EXPECT_STREQ(MigrationPhaseName(MigrationPhase::kDone), "Done");
  EXPECT_STREQ(MigrationPhaseName(MigrationPhase::kAborted), "Aborted");
}

TEST_F(MigrationTest, HappyPathMovesPrimaryWithoutLosingAnything) {
  const ShardId shard = BusiestShard();
  const NodeId from = db_->PrimaryNodeOf(shard);
  const NodeId to = OtherNode(shard);
  const uint64_t total_before = Count("created_time >= 0");
  ASSERT_EQ(db_->TotalDocs(), 200u);

  ASSERT_TRUE(db_->StartMigration(shard, to).ok());
  EXPECT_EQ(db_->MigrationPhaseOf(shard), MigrationPhase::kCopying);
  // A second start on the same shard must be refused.
  EXPECT_FALSE(db_->StartMigration(shard, to).ok());

  EXPECT_EQ(db_->DriveMigrations(), 1u);
  EXPECT_EQ(db_->MigrationPhaseOf(shard), MigrationPhase::kDone);
  EXPECT_EQ(db_->PrimaryNodeOf(shard), to);
  EXPECT_NE(db_->PrimaryNodeOf(shard), from);
  EXPECT_NE(db_->ReplicaNodeOf(shard), db_->PrimaryNodeOf(shard));
  const auto stats = db_->migrator()->stats();
  EXPECT_EQ(stats.started, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_GT(stats.segments_copied, 0u);
  EXPECT_GT(stats.bytes_copied, 0u);

  // Nothing lost, nothing duplicated, and the shard still takes
  // writes and refreshes on its new home.
  EXPECT_EQ(db_->TotalDocs(), 200u);
  EXPECT_EQ(Count("created_time >= 0"), total_before);
  for (int64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(db_->Insert(MakeLog(1 + i % 5, 1000 + i, 1000 + i)).ok());
  }
  db_->RefreshAll();
  EXPECT_EQ(Count("record_id >= 1000"), 50u);
}

TEST_F(MigrationTest, ReaderRowCountInvariantAcrossEveryStep) {
  const ShardId shard = BusiestShard();
  const uint64_t total = Count("created_time >= 0");
  std::vector<uint64_t> per_tenant;
  for (int64_t tenant = 1; tenant <= 5; ++tenant) {
    per_tenant.push_back(
        Count("tenant_id = " + std::to_string(tenant)));
  }

  ASSERT_TRUE(db_->StartMigration(shard, OtherNode(shard)).ok());
  // Single-step the migrator so every state-machine edge (including
  // the cutover swap itself) sits between two reader checks.
  int guard = 0;
  while (db_->migrator()->active(shard)) {
    ASSERT_LT(++guard, 1000);
    auto phase = db_->migrator()->Drive(shard);
    ASSERT_TRUE(phase.ok()) << phase.status().ToString();
    EXPECT_EQ(Count("created_time >= 0"), total)
        << "after step to " << MigrationPhaseName(*phase);
    for (int64_t tenant = 1; tenant <= 5; ++tenant) {
      EXPECT_EQ(Count("tenant_id = " + std::to_string(tenant)),
                per_tenant[size_t(tenant - 1)])
          << "after step to " << MigrationPhaseName(*phase);
    }
  }
  EXPECT_EQ(db_->MigrationPhaseOf(shard), MigrationPhase::kDone);
}

TEST_F(MigrationTest, DualWriteKeepsTargetIdenticalToSource) {
  const ShardId shard = BusiestShard();
  ASSERT_TRUE(db_->StartMigration(shard, OtherNode(shard)).ok());
  // Writes landing while Copying must be queued, not lost.
  for (int64_t i = 0; i < 60; ++i) {
    ASSERT_TRUE(db_->Insert(MakeLog(1 + i % 5, 2000 + i, 2000 + i)).ok());
  }
  // Drive exactly into DualWrite (StepCopy's last batch replays the
  // delta and flips the phase).
  int guard = 0;
  while (db_->MigrationPhaseOf(shard) == MigrationPhase::kCopying) {
    ASSERT_LT(++guard, 1000);
    ASSERT_TRUE(db_->migrator()->Drive(shard).ok());
  }
  ASSERT_EQ(db_->MigrationPhaseOf(shard), MigrationPhase::kDualWrite);

  // Mirrored DML: inserts, updates and deletes hit source and target
  // in the same acknowledged order.
  for (int64_t i = 0; i < 120; ++i) {
    const int64_t record = 2000 + i % 60;
    if (i % 3 == 2) {
      ASSERT_TRUE(db_->Apply(MakeOp(OpType::kDelete, 1 + record % 5, record,
                                    record))
                      .ok());
    } else {
      ASSERT_TRUE(db_->Apply(MakeOp(OpType::kUpdate, 1 + record % 5, record,
                                    record, 7))
                      .ok());
    }
  }

  const ShardStore* target = db_->migrator()->target_for_test(shard);
  ASSERT_NE(target, nullptr);
  ExpectSameLiveSet(*db_->MigrationSource(shard)->primary(), *target, 2100);
  EXPECT_GT(db_->migrator()->stats().mirrored_ops, 0u);
}

TEST_F(MigrationTest, TelemetryPicksAndMovesTheHotShard) {
  // Hammer one tenant so one shard's decayed counters dominate, plus
  // a second warm tenant that shares the hot shard's node (tenants 3
  // and 30 co-reside under the fixture's allocation) — the planner
  // requires moving a shard to STRICTLY shrink the busiest-vs-idlest
  // spread, which a node whose load is a single shard can't satisfy.
  for (int64_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(db_->Insert(MakeLog(3, 5000 + i, 5000 + i)).ok());
  }
  for (int64_t i = 0; i < 400; ++i) {
    ASSERT_TRUE(db_->Insert(MakeLog(30, 8000 + i, 8000 + i)).ok());
  }
  // The hottest shard, by the tracker's own score.
  ShardId hottest = 0;
  for (uint32_t shard = 1; shard < 16; ++shard) {
    if (db_->heat()->Score(shard) > db_->heat()->Score(hottest)) {
      hottest = shard;
    }
  }
  const NodeId busy_node = db_->PrimaryNodeOf(hottest);

  const size_t started = db_->MaybeMigrate();
  ASSERT_GT(started, 0u);
  // The balancer must have picked the hottest shard, off its node.
  ASSERT_TRUE(db_->migrator()->active(hottest));
  const NodeId to = db_->migrator()->to_node(hottest);
  EXPECT_NE(to, busy_node);
  EXPECT_EQ(db_->DriveMigrations(), started);
  EXPECT_EQ(db_->PrimaryNodeOf(hottest), to);
  db_->RefreshAll();
  EXPECT_EQ(Count("tenant_id = 3"), 2040u);
  EXPECT_EQ(Count("tenant_id = 30"), 400u);
}

TEST_F(MigrationTest, FailNodeAbortsInvolvedMigrationAndKeepsData) {
  const ShardId shard = BusiestShard();
  const NodeId to = OtherNode(shard);
  ASSERT_TRUE(db_->StartMigration(shard, to).ok());
  ASSERT_EQ(db_->MigrationPhaseOf(shard), MigrationPhase::kCopying);

  ASSERT_TRUE(db_->FailNode(to).ok());
  EXPECT_EQ(db_->MigrationPhaseOf(shard), MigrationPhase::kAborted);
  db_->RefreshAll();
  EXPECT_EQ(Count("created_time >= 0"), 200u);
}

TEST_F(MigrationTest, RemoveNodeAbortsInvolvedMigration) {
  const ShardId shard = BusiestShard();
  const NodeId to = OtherNode(shard);
  ASSERT_TRUE(db_->StartMigration(shard, to).ok());
  ASSERT_TRUE(db_->RemoveNode(to).ok());
  EXPECT_EQ(db_->MigrationPhaseOf(shard), MigrationPhase::kAborted);
  EXPECT_EQ(Count("created_time >= 0"), 200u);
}

// Regression for a hole the migration fuzzer found: the bulk-copied
// segments of a just-cut-over shard have no translog backing, so the
// replacement's replica must be seeded with them SYNCHRONOUSLY at
// install time. Kill the new primary's node immediately after the
// cutover — before any RefreshAll ships segments — and every
// acknowledged write must still survive the failover.
TEST_F(MigrationTest, FailNodeRightAfterCutoverLosesNothing) {
  const ShardId shard = BusiestShard();
  const NodeId to = OtherNode(shard);
  ASSERT_TRUE(db_->StartMigration(shard, to).ok());
  ASSERT_EQ(db_->DriveMigrations(), 1u);
  ASSERT_EQ(db_->MigrationPhaseOf(shard), MigrationPhase::kDone);
  ASSERT_EQ(db_->PrimaryNodeOf(shard), to);

  // No refresh between cutover and the crash: the replica has only
  // what InstallMigrated itself seeded.
  ASSERT_TRUE(db_->FailNode(to).ok());
  EXPECT_NE(db_->PrimaryNodeOf(shard), to);
  db_->RefreshAll();
  EXPECT_EQ(Count("created_time >= 0"), 200u);
  for (int64_t tenant = 1; tenant <= 5; ++tenant) {
    EXPECT_EQ(Count("tenant_id = " + std::to_string(tenant)), 40u)
        << "tenant " << tenant;
  }
}

// Regression: writes that the source refreshed during a migration are
// searchable before the cutover, so they must stay searchable after
// it. The target used to hold its replayed delta unrefreshed, and a
// cutover hid those writes until the next RefreshAll (COUNT(*) read
// 140 of 200 here).
class MigrationVisibilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Esdb::Options options;
    options.num_shards = 4;
    options.store.refresh_doc_count = 0;
    options.with_replicas = true;
    db_ = std::make_unique<Esdb>(options);
    for (NodeId node = 1; node <= 3; ++node) {
      ASSERT_TRUE(db_->AddNode(node).ok());
    }
    Write(0, 100);
    db_->RefreshAll();
    // The shard holding most docs: most of the next writes land there.
    for (ShardId s = 1; s < 4; ++s) {
      if (db_->MigrationSource(s)->primary()->num_live_docs() >
          db_->MigrationSource(shard_)->primary()->num_live_docs()) {
        shard_ = s;
      }
    }
    const NodeId from = db_->PrimaryNodeOf(shard_);
    ASSERT_TRUE(db_->StartMigration(shard_, from == 1 ? 2 : 1).ok());
    Write(100, 100);
  }

  void Write(int64_t first, int64_t n) {
    for (int64_t i = first; i < first + n; ++i) {
      ASSERT_TRUE(db_->Insert(MakeLog(1 + i % 7, i, i)).ok());
    }
  }

  uint64_t CountAll() {
    auto r = db_->ExecuteSql("SELECT COUNT(*) FROM t");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r->agg_count : 0;
  }

  std::unique_ptr<Esdb> db_;
  ShardId shard_ = 0;
};

TEST_F(MigrationVisibilityTest, CutoverKeepsRefreshedWritesVisible) {
  db_->RefreshAll();
  ASSERT_EQ(CountAll(), 200u);
  int guard = 0;
  while (db_->migrator()->active(shard_)) {
    ASSERT_LT(++guard, 1000);
    auto phase = db_->migrator()->Drive(shard_);
    ASSERT_TRUE(phase.ok()) << phase.status().ToString();
    EXPECT_EQ(CountAll(), 200u) << "after step to "
                                << MigrationPhaseName(*phase);
  }
  ASSERT_EQ(db_->MigrationPhaseOf(shard_), MigrationPhase::kDone);
  EXPECT_EQ(db_->DriveMigrations(), 0u);
  EXPECT_EQ(CountAll(), 200u);
}

TEST_F(MigrationVisibilityTest, CutoverKeepsUnrefreshedWritesBuffered) {
  // Nothing refreshed since Start: the target publishes no more than
  // the source did, and the next refresh shows every write.
  const uint64_t before = CountAll();
  ASSERT_LT(before, 200u);
  EXPECT_EQ(db_->DriveMigrations(), 1u);
  ASSERT_EQ(db_->MigrationPhaseOf(shard_), MigrationPhase::kDone);
  EXPECT_EQ(CountAll(), before);
  db_->RefreshAll();
  EXPECT_EQ(CountAll(), 200u);
}

// ---------------------------------------------------------------------
// Fault-injection matrix: one scenario per migrate/* site. Each
// verifies the documented semantics of its edge AND replays the full
// acknowledged history as the no-lost-writes oracle. Referenced by
// kMatrixSites in crash_recovery_test.cc.
// ---------------------------------------------------------------------

class MigrationFailMatrix : public MigrationTest {
 protected:
  void SetUp() override {
    if (!FailPoints::CompiledIn()) {
      GTEST_SKIP() << "fail points compiled out (ESDB_FAILPOINTS=OFF)";
    }
    MigrationTest::SetUp();
  }
  void TearDown() override { FailPoints::DisarmAll(); }
};

// migrate/start: the start RPC is lost. Nothing is captured, the
// shard keeps serving, a retry succeeds.
TEST_F(MigrationFailMatrix, StartFails) {
  const ShardId shard = BusiestShard();
  const NodeId to = OtherNode(shard);
  FailPoints::Arm(failsite::kMigrateStart, FailPoints::Once());
  auto failed = db_->StartMigration(shard, to);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kUnavailable);
  EXPECT_EQ(db_->MigrationPhaseOf(shard), MigrationPhase::kIdle);

  ASSERT_TRUE(db_->Insert(MakeLog(1, 3000, 3000)).ok());
  ASSERT_TRUE(db_->StartMigration(shard, to).ok());
  EXPECT_EQ(db_->DriveMigrations(), 1u);
  db_->RefreshAll();
  EXPECT_EQ(Count("created_time >= 0"), 201u);
}

// migrate/copy-segment: the bulk copy stream dies mid-batch. The
// cursor survives, the retry re-ships from where it stopped, and the
// finished migration holds every acknowledged write.
TEST_F(MigrationFailMatrix, CopySegmentFails) {
  const ShardId shard = BusiestShard();
  ASSERT_TRUE(db_->StartMigration(shard, OtherNode(shard)).ok());
  FailPoints::Arm(failsite::kMigrateCopySegment, FailPoints::Once());
  auto step = db_->migrator()->Drive(shard);
  ASSERT_FALSE(step.ok());
  EXPECT_EQ(step.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(db_->MigrationPhaseOf(shard), MigrationPhase::kCopying);

  // Writes during the stall are still acknowledged (and queued).
  ASSERT_TRUE(db_->Insert(MakeLog(2, 3100, 3100)).ok());
  EXPECT_EQ(db_->DriveMigrations(), 1u);
  db_->RefreshAll();
  EXPECT_EQ(Count("created_time >= 0"), 201u);
  EXPECT_EQ(Count("record_id = 3100"), 1u);
}

// migrate/delta-replay: the delta stream is unreachable right after
// the bulk copy finished. The edge retries wholesale; nothing is
// half-replayed.
TEST_F(MigrationFailMatrix, DeltaReplayFails) {
  const ShardId shard = BusiestShard();
  ASSERT_TRUE(db_->StartMigration(shard, OtherNode(shard)).ok());
  ASSERT_TRUE(db_->Insert(MakeLog(2, 3200, 3200)).ok());  // -> pending queue
  FailPoints::Arm(failsite::kMigrateDeltaReplay, FailPoints::Once());
  int guard = 0;
  Status last = Status::OK();
  while (db_->MigrationPhaseOf(shard) == MigrationPhase::kCopying) {
    ASSERT_LT(++guard, 1000);
    auto step = db_->migrator()->Drive(shard);
    if (!step.ok()) {
      last = step.status();
      break;
    }
  }
  ASSERT_EQ(last.code(), StatusCode::kUnavailable);
  EXPECT_EQ(db_->MigrationPhaseOf(shard), MigrationPhase::kCopying);

  EXPECT_EQ(db_->DriveMigrations(), 1u);
  db_->RefreshAll();
  EXPECT_EQ(Count("created_time >= 0"), 201u);
  EXPECT_EQ(Count("record_id = 3200"), 1u);
}

// migrate/mirror-write: the mirror stream to the target dies under a
// client write. The client ack MUST stand (the source has the op);
// the migration — now missing an op — aborts rather than cut over a
// divergent target.
TEST_F(MigrationFailMatrix, MirrorWriteFails) {
  const ShardId shard = BusiestShard();
  ASSERT_TRUE(db_->StartMigration(shard, OtherNode(shard)).ok());
  int guard = 0;
  while (db_->MigrationPhaseOf(shard) == MigrationPhase::kCopying) {
    ASSERT_LT(++guard, 1000);
    ASSERT_TRUE(db_->migrator()->Drive(shard).ok());
  }
  ASSERT_EQ(db_->MigrationPhaseOf(shard), MigrationPhase::kDualWrite);

  const uint64_t base = FailPoints::Triggers(failsite::kMigrateMirrorWrite);
  FailPoints::Arm(failsite::kMigrateMirrorWrite, FailPoints::Once());
  // The write that hits the armed site must be one routed to the
  // migrating shard; writes to other shards don't evaluate it. Insert
  // into every tenant until the site fires.
  guard = 0;
  while (FailPoints::Triggers(failsite::kMigrateMirrorWrite) == base) {
    ASSERT_LT(guard, 1000);
    ASSERT_TRUE(
        db_->Insert(MakeLog(1 + guard % 5, 3300 + guard, 3300 + guard)).ok());
    ++guard;
  }
  EXPECT_EQ(db_->MigrationPhaseOf(shard), MigrationPhase::kAborted);

  // Every acknowledged write — including the one whose mirror died —
  // is serveable.
  db_->RefreshAll();
  EXPECT_EQ(Count("created_time >= 0"), 200u + uint64_t(guard));
}

// migrate/cutover: failure mid-cutover, the most delicate edge. The
// routing swap has not happened: the source still acknowledges,
// mirroring continues, and the retried cutover completes with zero
// lost writes.
TEST_F(MigrationFailMatrix, CutoverFails) {
  const ShardId shard = BusiestShard();
  const NodeId from = db_->PrimaryNodeOf(shard);
  const NodeId to = OtherNode(shard);
  ASSERT_TRUE(db_->StartMigration(shard, to).ok());
  int guard = 0;
  while (db_->MigrationPhaseOf(shard) != MigrationPhase::kCutOver) {
    ASSERT_LT(++guard, 1000);
    ASSERT_TRUE(db_->migrator()->Drive(shard).ok());
  }

  FailPoints::Arm(failsite::kMigrateCutover, FailPoints::Once());
  auto step = db_->migrator()->Drive(shard);
  ASSERT_FALSE(step.ok());
  EXPECT_EQ(step.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(db_->MigrationPhaseOf(shard), MigrationPhase::kCutOver);
  EXPECT_EQ(db_->PrimaryNodeOf(shard), from);  // swap did NOT happen

  // Mirroring continues across the stalled cutover.
  const uint64_t mirrored_before = db_->migrator()->stats().mirrored_ops;
  for (int64_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(db_->Insert(MakeLog(1 + i % 5, 3400 + i, 3400 + i)).ok());
  }
  EXPECT_GT(db_->migrator()->stats().mirrored_ops, mirrored_before);

  EXPECT_EQ(db_->DriveMigrations(), 1u);
  EXPECT_EQ(db_->PrimaryNodeOf(shard), to);
  db_->RefreshAll();
  EXPECT_EQ(Count("created_time >= 0"), 240u);
  EXPECT_EQ(Count("record_id >= 3400"), 40u);
}

// A migrate site armed kCrash really does take the process down at
// the edge (the mode crash harnesses rely on). The acknowledged data
// lives in the source's translog/segments, exactly like any other
// crash — recovery of that path is crash_recovery_test.cc territory.
TEST_F(MigrationFailMatrix, CrashModeDiesMidCutover) {
  const ShardId shard = BusiestShard();
  ASSERT_TRUE(db_->StartMigration(shard, OtherNode(shard)).ok());
  int guard = 0;
  while (db_->MigrationPhaseOf(shard) != MigrationPhase::kCutOver) {
    ASSERT_LT(++guard, 1000);
    ASSERT_TRUE(db_->migrator()->Drive(shard).ok());
  }
  FailPoints::Arm(failsite::kMigrateCutover, FailPoints::CrashHere());
  EXPECT_DEATH_IF_SUPPORTED((void)db_->migrator()->Drive(shard).ok(),
                            "fail point");
  FailPoints::Disarm(failsite::kMigrateCutover);
}

// ---------------------------------------------------------------------
// Randomized migration fuzzer: random DML + refreshes interleaved
// with randomly started, randomly fault-injected migrations and node
// failures. Oracle: the cluster's final state equals the reference
// map built from every acknowledged op — nothing lost, nothing
// invented, no matter where a migration died. Iteration seed printed
// on failure; ESDB_FUZZ_ITERS overrides the count.
// ---------------------------------------------------------------------

int FuzzIterations() {
  const char* env = std::getenv("ESDB_FUZZ_ITERS");
  if (env != nullptr) {
    const int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
  }
  return 200;
}

TEST(MigrationFuzzer, RandomMigrationsNeverLoseAcknowledgedWrites) {
  const int iterations = FuzzIterations();
  const char* kMigrateSites[] = {
      failsite::kMigrateStart,      failsite::kMigrateCopySegment,
      failsite::kMigrateDeltaReplay, failsite::kMigrateMirrorWrite,
      failsite::kMigrateCutover,
  };

  for (int iter = 0; iter < iterations; ++iter) {
    const uint64_t seed = 0x5eedbeef + uint64_t(iter) * 1000003;
    SCOPED_TRACE("iteration " + std::to_string(iter) + " seed " +
                 std::to_string(seed));
    Rng rng(seed);

    Esdb::Options options = SmallCluster();
    options.num_shards = 8;
    Esdb db(options);
    uint32_t alive = 4 + uint32_t(rng.Uniform(3));  // 4..6 nodes
    for (NodeId node = 1; node <= alive; ++node) {
      ASSERT_TRUE(db.AddNode(node).ok());
    }

    // Reference: record -> (tenant, status); absent = deleted. The
    // routing key (tenant, record, time) is remembered so updates and
    // deletes land on the inserting shard.
    std::map<int64_t, std::pair<int64_t, int64_t>> reference;

    const int ops = 150;
    for (int i = 0; i < ops; ++i) {
      const int64_t record = int64_t(rng.Uniform(80));
      const int64_t tenant = 1 + record % 7;
      const double dice = double(rng.Uniform(1000)) / 1000.0;
      if (dice < 0.15 && reference.count(record) > 0) {
        WriteOp op = MakeOp(OpType::kDelete, tenant, record, record);
        ASSERT_TRUE(db.Apply(op).ok());
        reference.erase(record);
      } else {
        const int64_t status = int64_t(rng.Uniform(10));
        WriteOp op = MakeOp(reference.count(record) > 0 ? OpType::kUpdate
                                                        : OpType::kInsert,
                            tenant, record, record, status);
        ASSERT_TRUE(db.Apply(op).ok());
        reference[record] = {tenant, status};
      }

      if (rng.Bernoulli(0.08)) db.RefreshAll();

      // Occasionally kick off a migration of a random shard, with a
      // 50% chance of arming a random migrate/* fault first.
      if (rng.Bernoulli(0.1)) {
        const ShardId shard = ShardId(rng.Uniform(8));
        const NodeId to = NodeId(1 + rng.Uniform(alive));
        if (FailPoints::CompiledIn() && rng.Bernoulli(0.5)) {
          FailPoints::Arm(kMigrateSites[rng.Uniform(5)],
                          FailPoints::Once());
        }
        (void)db.StartMigration(shard, to);  // may legitimately refuse
      }
      // Randomly advance whatever is in flight by a single step.
      if (rng.Bernoulli(0.3)) {
        const ShardId shard = ShardId(rng.Uniform(8));
        if (db.migrator()->active(shard)) {
          (void)db.migrator()->Drive(shard);  // may fault; that's the point
        }
      }
      // Rare correlated node failure (keep >= 3 so replicas fit).
      if (alive > 3 && rng.Bernoulli(0.01)) {
        const NodeId victim = NodeId(1 + rng.Uniform(alive));
        // Node ids above the victim keep their identity; a later
        // StartMigration aimed at the dead node is simply refused.
        if (db.FailNode(victim).ok()) --alive;
      }
    }

    FailPoints::DisarmAll();
    // Drain every in-flight migration to a terminal state.
    (void)db.DriveMigrations();
    db.RefreshAll();

    // Replay oracle: per-tenant and per-status counts derived from
    // the reference must match the cluster exactly, as must the
    // total. An op lost in a migration edge shows up here.
    ASSERT_EQ(db.TotalDocs(), reference.size());
    std::map<int64_t, uint64_t> tenant_counts, status_counts;
    for (const auto& entry : reference) {
      tenant_counts[entry.second.first]++;
      status_counts[entry.second.second]++;
    }
    for (int64_t tenant = 1; tenant <= 7; ++tenant) {
      auto r = db.ExecuteSql("SELECT COUNT(*) FROM t WHERE tenant_id = " +
                             std::to_string(tenant));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r->agg_count, tenant_counts[tenant]) << "tenant " << tenant;
    }
    for (int64_t status = 0; status < 10; ++status) {
      auto r = db.ExecuteSql("SELECT COUNT(*) FROM t WHERE status = " +
                             std::to_string(status));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r->agg_count, status_counts[status]) << "status " << status;
    }
    if (::testing::Test::HasFailure()) break;
  }
}

}  // namespace
}  // namespace esdb
