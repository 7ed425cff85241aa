#ifndef ESDB_CLUSTER_MIGRATION_H_
#define ESDB_CLUSTER_MIGRATION_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "consensus/network.h"  // NodeId
#include "replication/replication.h"
#include "routing/rule_list.h"  // ShardId
#include "storage/shard_store.h"

namespace esdb {

// Per-shard live-migration state machine:
//
//   Idle -> Copying -> DualWrite -> CutOver -> Done
//             |            |           |
//             +------------+-----------+---> Aborted
//
// Copying   bulk-ships the pinned-epoch segments (the replication
//           segment-copy path) while incoming writes keep landing on
//           the source and queue up for the target.
// DualWrite begins after the delta replay: every acknowledged write
//           is mirrored synchronously to the target, so the two
//           stores stay op-for-op identical.
// CutOver   is armed dual-write: mirroring continues; the next Drive
//           swaps the routing entry atomically. A crash or failure
//           anywhere before the swap leaves the source authoritative
//           and loses nothing; after the swap the target is.
enum class MigrationPhase : uint8_t {
  kIdle = 0,
  kCopying,
  kDualWrite,
  kCutOver,
  kDone,
  kAborted,
};

const char* MigrationPhaseName(MigrationPhase phase);

// What the cluster layer provides to the migrator. Both calls are
// invoked with the shard's migration slot lock held, so neither may
// call back into the migrator for the same shard.
class MigrationHost {
 public:
  virtual ~MigrationHost() = default;

  // Current source shard (the one acknowledging writes). Returned as
  // a shared_ptr so a concurrent failover cannot free it mid-use; a
  // null return means the shard is unavailable and aborts the step.
  virtual std::shared_ptr<ReplicatedShard> MigrationSource(ShardId shard) = 0;

  // Cutover: atomically rebind the shard's routing/placement to node
  // `to`, backed by `target`. On success the target acknowledges all
  // subsequent writes; on failure the migration aborts (the source
  // keeps serving, the target is discarded).
  [[nodiscard]] virtual Status InstallMigrated(
      ShardId shard, NodeId to, std::unique_ptr<ShardStore> target) = 0;
};

// Drives live shard migrations. The cluster layer funnels every write
// through Apply() so the migrator can queue (Copying) or mirror
// (DualWrite/CutOver) it; Drive() advances one state-machine step at
// a time so the control loop can interleave migration work with
// everything else, and so crash/fault injection can target every
// individual edge (failsite::kMigrate*).
//
// Correctness invariants (tested in tests/migration_test.cc):
//  * Acknowledged writes are never lost: the source acknowledges
//    until the instant of cutover, and the target receives every op
//    exactly once — pinned segments cover [0, boundary), the pinned
//    translog tail covers [boundary, start), the pending queue covers
//    [start, dual-write), mirroring covers the rest. Replay happens
//    only AFTER all pinned segments are installed, so an old record
//    version can never resurrect a queued delete/update.
//  * Any failure before InstallMigrated returns success aborts the
//    migration with zero client-visible effect.
class ShardMigrator {
 public:
  struct Options {
    // Segments shipped per Drive() step while Copying — bounds how
    // long the slot lock is held so writers never stall behind a bulk
    // copy for more than one batch.
    size_t copy_batch_segments = 4;
  };

  struct Stats {
    uint64_t started = 0;
    uint64_t completed = 0;
    uint64_t aborted = 0;
    uint64_t segments_copied = 0;
    uint64_t bytes_copied = 0;
    uint64_t delta_ops_replayed = 0;
    uint64_t mirrored_ops = 0;
  };

  ShardMigrator(MigrationHost* host, const IndexSpec* spec,
                ShardStore::Options store_options, uint32_t num_shards,
                Options options);
  ShardMigrator(MigrationHost* host, const IndexSpec* spec,
                ShardStore::Options store_options, uint32_t num_shards)
      : ShardMigrator(host, spec, store_options, num_shards, Options{}) {}

  // The cluster write path: applies `op` to the source (which alone
  // acknowledges it), then queues or mirrors it according to the
  // shard's migration phase. A mirror failure aborts the migration —
  // the acknowledgement stands, because the source has the op.
  [[nodiscard]] Result<uint64_t> Apply(ShardId shard, const WriteOp& op);

  // Begins migrating `shard` from node `from` to node `to`: captures
  // the source's pinned epoch (segments + translog tail) atomically
  // with respect to Apply(), creates the empty target store, and
  // enters Copying. Fails if a migration is already active.
  [[nodiscard]] Status Start(ShardId shard, NodeId from, NodeId to);

  // Advances the shard's migration by one step and returns the phase
  // after it. Unavailable errors are transient (fault injection /
  // backpressure): state is preserved and the call can simply be
  // retried. Any other error has already aborted the migration.
  [[nodiscard]] Result<MigrationPhase> Drive(ShardId shard);

  // Abandons an active migration: target discarded, source untouched.
  // No-op error if nothing is active.
  [[nodiscard]] Status Abort(ShardId shard);

  MigrationPhase phase(ShardId shard) const;
  bool active(ShardId shard) const {
    const MigrationPhase p = phase(shard);
    return p == MigrationPhase::kCopying || p == MigrationPhase::kDualWrite ||
           p == MigrationPhase::kCutOver;
  }
  // Destination node of the active (or last) migration of `shard`.
  NodeId to_node(ShardId shard) const;
  NodeId from_node(ShardId shard) const;

  uint32_t num_shards() const { return uint32_t(slots_.size()); }

  Stats stats() const {
    Stats s;
    s.started = started_.load(std::memory_order_relaxed);
    s.completed = completed_.load(std::memory_order_relaxed);
    s.aborted = aborted_.load(std::memory_order_relaxed);
    s.segments_copied = segments_copied_.load(std::memory_order_relaxed);
    s.bytes_copied = bytes_copied_.load(std::memory_order_relaxed);
    s.delta_ops_replayed = delta_ops_replayed_.load(std::memory_order_relaxed);
    s.mirrored_ops = mirrored_ops_.load(std::memory_order_relaxed);
    return s;
  }

  // Test-only: the in-flight target store (null unless active). The
  // divergence oracle compares it doc-for-doc against the source
  // during DualWrite; production code never touches it.
  const ShardStore* target_for_test(ShardId shard) const;

 private:
  struct Slot {
    // Slot-level lock: spans the source Apply AND the queue/mirror
    // decision, so the mirrored op stream is exactly the source's
    // acknowledged op order. Sits ABOVE ReplicatedShard::mu_ (and
    // therefore every ShardStore mutex) in the lock hierarchy.
    mutable Mutex mu;
    MigrationPhase phase GUARDED_BY(mu) = MigrationPhase::kIdle;
    NodeId from GUARDED_BY(mu) = 0;
    NodeId to GUARDED_BY(mu) = 0;
    // Captured at Start(): immutable segment snapshot + the translog
    // tail copied out (copied, not referenced — a later Flush() on
    // the source may truncate the translog mid-migration).
    ShardStore::PinnedEpoch pinned GUARDED_BY(mu);
    // pinned.boundary_seq, kept past the replay: every source op from
    // here on reaches the target through its write buffer.
    uint64_t boundary_seq GUARDED_BY(mu) = 0;
    size_t copy_pos GUARDED_BY(mu) = 0;
    // Ops acknowledged while Copying, in ack order, waiting for the
    // delta replay that precedes dual-write.
    std::deque<WriteOp> pending GUARDED_BY(mu);
    std::unique_ptr<ShardStore> target GUARDED_BY(mu);
  };

  // All three steps run under slot->mu (annotated via REQUIRES).
  Result<MigrationPhase> StepCopy(ShardId shard, Slot* slot)
      REQUIRES(slot->mu);
  Result<MigrationPhase> EnterDualWrite(Slot* slot) REQUIRES(slot->mu);
  Result<MigrationPhase> StepCutOver(ShardId shard, Slot* slot)
      REQUIRES(slot->mu);
  void AbortLocked(Slot* slot) REQUIRES(slot->mu);

  MigrationHost* const host_;
  const IndexSpec* const spec_;
  const ShardStore::Options store_options_;
  const Options options_;
  // Fixed at construction; the unique_ptr indirection keeps Slot
  // addresses (and their mutexes) stable.
  std::vector<std::unique_ptr<Slot>> slots_;

  std::atomic<uint64_t> started_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> aborted_{0};
  std::atomic<uint64_t> segments_copied_{0};
  std::atomic<uint64_t> bytes_copied_{0};
  std::atomic<uint64_t> delta_ops_replayed_{0};
  std::atomic<uint64_t> mirrored_ops_{0};
};

}  // namespace esdb

#endif  // ESDB_CLUSTER_MIGRATION_H_
