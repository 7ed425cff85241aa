#include "cluster/migration.h"

#include <algorithm>
#include <utility>

#include "common/failpoint.h"

namespace esdb {

const char* MigrationPhaseName(MigrationPhase phase) {
  switch (phase) {
    case MigrationPhase::kIdle:
      return "Idle";
    case MigrationPhase::kCopying:
      return "Copying";
    case MigrationPhase::kDualWrite:
      return "DualWrite";
    case MigrationPhase::kCutOver:
      return "CutOver";
    case MigrationPhase::kDone:
      return "Done";
    case MigrationPhase::kAborted:
      return "Aborted";
  }
  return "?";
}

ShardMigrator::ShardMigrator(MigrationHost* host, const IndexSpec* spec,
                             ShardStore::Options store_options,
                             uint32_t num_shards, Options options)
    : host_(host),
      spec_(spec),
      store_options_(store_options),
      options_(options) {
  slots_.reserve(num_shards);
  for (uint32_t i = 0; i < num_shards; ++i) {
    slots_.push_back(std::make_unique<Slot>());
  }
}

MigrationPhase ShardMigrator::phase(ShardId shard) const {
  Slot* slot = slots_[shard].get();
  MutexLock lock(&slot->mu);
  return slot->phase;
}

NodeId ShardMigrator::to_node(ShardId shard) const {
  Slot* slot = slots_[shard].get();
  MutexLock lock(&slot->mu);
  return slot->to;
}

NodeId ShardMigrator::from_node(ShardId shard) const {
  Slot* slot = slots_[shard].get();
  MutexLock lock(&slot->mu);
  return slot->from;
}

const ShardStore* ShardMigrator::target_for_test(ShardId shard) const {
  Slot* slot = slots_[shard].get();
  MutexLock lock(&slot->mu);
  return slot->target.get();
}

void ShardMigrator::AbortLocked(Slot* slot) {
  slot->phase = MigrationPhase::kAborted;
  slot->target.reset();
  slot->pinned = ShardStore::PinnedEpoch{};
  slot->pending.clear();
  slot->copy_pos = 0;
  aborted_.fetch_add(1, std::memory_order_relaxed);
}

Result<uint64_t> ShardMigrator::Apply(ShardId shard, const WriteOp& op) {
  Slot* slot = slots_[shard].get();
  MutexLock lock(&slot->mu);
  std::shared_ptr<ReplicatedShard> source = host_->MigrationSource(shard);
  if (source == nullptr) return Status::Unavailable("shard has no source");

  // The source acknowledges; only an acknowledged op may be queued or
  // mirrored (a rejected op must not reach the target either).
  ESDB_ASSIGN_OR_RETURN(const uint64_t seq, source->Apply(op));

  switch (slot->phase) {
    case MigrationPhase::kCopying:
      slot->pending.push_back(op);
      break;
    case MigrationPhase::kDualWrite:
    case MigrationPhase::kCutOver: {
      // Fault point: the mirror stream to the target dies. The client
      // ack stands — the source has the op — so the only safe move is
      // to abandon the migration; retrying later would leave a hole
      // in the target's op stream.
      if (ESDB_FAIL_POINT(failsite::kMigrateMirrorWrite)) {
        AbortLocked(slot);
        break;
      }
      const auto mirrored = slot->target->Apply(op);
      if (!mirrored.ok()) {
        AbortLocked(slot);
        break;
      }
      mirrored_ops_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    case MigrationPhase::kIdle:
    case MigrationPhase::kDone:
    case MigrationPhase::kAborted:
      break;
  }
  return seq;
}

Status ShardMigrator::Start(ShardId shard, NodeId from, NodeId to) {
  if (shard >= slots_.size()) return Status::InvalidArgument("unknown shard");
  Slot* slot = slots_[shard].get();
  MutexLock lock(&slot->mu);
  if (slot->phase == MigrationPhase::kCopying ||
      slot->phase == MigrationPhase::kDualWrite ||
      slot->phase == MigrationPhase::kCutOver) {
    return Status::FailedPrecondition("migration already active");
  }
  // Fault point: the migration never gets off the ground (e.g. the
  // balancer's start RPC is lost). Pure no-op — nothing captured yet.
  if (ESDB_FAIL_POINT(failsite::kMigrateStart)) {
    return Status::Unavailable("failpoint: migrate/start");
  }
  std::shared_ptr<ReplicatedShard> source = host_->MigrationSource(shard);
  if (source == nullptr) return Status::Unavailable("shard has no source");

  // Captured under slot->mu, the same lock Apply() holds: every op is
  // either <= the pinned boundary (in segments), in the pinned tail,
  // or arrives later and lands in `pending` — exactly once each.
  ESDB_ASSIGN_OR_RETURN(slot->pinned,
                        source->primary()->ExportPinnedEpoch());
  slot->boundary_seq = slot->pinned.boundary_seq;
  slot->target = std::make_unique<ShardStore>(spec_, store_options_);
  slot->pending.clear();
  slot->copy_pos = 0;
  slot->from = from;
  slot->to = to;
  slot->phase = MigrationPhase::kCopying;
  started_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Result<MigrationPhase> ShardMigrator::StepCopy(ShardId shard, Slot* slot) {
  (void)shard;
  const ShardView& segments = *slot->pinned.snapshot;
  const size_t batch_end =
      std::min(segments.size(), slot->copy_pos + options_.copy_batch_segments);
  while (slot->copy_pos < batch_end) {
    // Fault point: the bulk copy stream dies (network cut, target
    // restart). copy_pos survives and InstallSegment is idempotent by
    // id, so the step is simply retried later.
    if (ESDB_FAIL_POINT(failsite::kMigrateCopySegment)) {
      return Status::Unavailable("failpoint: migrate/copy-segment");
    }
    ESDB_ASSIGN_OR_RETURN(
        const size_t bytes,
        CopySegmentInto(segments[slot->copy_pos], slot->target.get()));
    ++slot->copy_pos;
    segments_copied_.fetch_add(1, std::memory_order_relaxed);
    bytes_copied_.fetch_add(bytes, std::memory_order_relaxed);
  }
  if (slot->copy_pos < segments.size()) return MigrationPhase::kCopying;
  return EnterDualWrite(slot);
}

Result<MigrationPhase> ShardMigrator::EnterDualWrite(Slot* slot) {
  // Fault point: the delta stream is unreachable. Nothing replayed
  // yet on this attempt — Drive() retries the whole edge.
  if (ESDB_FAIL_POINT(failsite::kMigrateDeltaReplay)) {
    return Status::Unavailable("failpoint: migrate/delta-replay");
  }
  // Replay order is ack order: pinned translog tail (ops acknowledged
  // before Start) first, then the pending queue (acknowledged while
  // Copying). Both run strictly AFTER every pinned segment installed,
  // so a delete/update here can never be shadowed by an older record
  // version arriving later. Ops go through the target's own Apply —
  // the target builds its own translog, which is what post-cutover
  // crash recovery replays.
  for (const WriteOp& op : slot->pinned.tail) {
    const auto seq = slot->target->Apply(op);
    if (!seq.ok()) {
      AbortLocked(slot);
      return seq.status();
    }
    delta_ops_replayed_.fetch_add(1, std::memory_order_relaxed);
  }
  for (const WriteOp& op : slot->pending) {
    const auto seq = slot->target->Apply(op);
    if (!seq.ok()) {
      AbortLocked(slot);
      return seq.status();
    }
    delta_ops_replayed_.fetch_add(1, std::memory_order_relaxed);
  }
  slot->pinned = ShardStore::PinnedEpoch{};
  slot->pending.clear();
  slot->phase = MigrationPhase::kDualWrite;
  return MigrationPhase::kDualWrite;
}

Result<MigrationPhase> ShardMigrator::StepCutOver(ShardId shard, Slot* slot) {
  // Fault point: mid-cutover failure — the most delicate edge. The
  // swap has not happened, the source still acknowledges, mirroring
  // continues; the step retries until the routing entry flips.
  if (ESDB_FAIL_POINT(failsite::kMigrateCutover)) {
    return Status::Unavailable("failpoint: migrate/cutover");
  }
  // The replayed delta and the mirrored writes sit in the target's
  // write buffer. If the source has published any of them since
  // Start, publish the target's buffer before the swap: a reader must
  // not lose a write that was searchable a moment before the routing
  // entry flipped. (The whole buffer goes; refreshing early is always
  // allowed.) Otherwise the target keeps them buffered, as the source
  // does, and cuts its segments where the source will.
  const std::shared_ptr<ReplicatedShard> source =
      host_->MigrationSource(shard);
  if (source != nullptr &&
      source->primary()->refreshed_seq() > slot->boundary_seq) {
    slot->target->Refresh();
  }
  // InstallMigrated swaps the routing entry while we hold slot->mu,
  // and every write goes Apply() -> slot->mu first: a writer either
  // ran before the swap (mirrored into this target) or after it
  // (acknowledged by the target directly). No gap, no duplicate.
  Status installed =
      host_->InstallMigrated(shard, slot->to, std::move(slot->target));
  if (!installed.ok()) {
    AbortLocked(slot);
    return installed;
  }
  slot->phase = MigrationPhase::kDone;
  slot->pinned = ShardStore::PinnedEpoch{};
  slot->pending.clear();
  slot->copy_pos = 0;
  completed_.fetch_add(1, std::memory_order_relaxed);
  return MigrationPhase::kDone;
}

Result<MigrationPhase> ShardMigrator::Drive(ShardId shard) {
  if (shard >= slots_.size()) return Status::InvalidArgument("unknown shard");
  Slot* slot = slots_[shard].get();
  MutexLock lock(&slot->mu);
  switch (slot->phase) {
    case MigrationPhase::kCopying:
      return StepCopy(shard, slot);
    case MigrationPhase::kDualWrite:
      // Arm the cutover. A distinct resting state, so fault injection
      // (and crash tests) can hit "mirroring live, swap imminent".
      slot->phase = MigrationPhase::kCutOver;
      return MigrationPhase::kCutOver;
    case MigrationPhase::kCutOver:
      return StepCutOver(shard, slot);
    case MigrationPhase::kIdle:
    case MigrationPhase::kDone:
    case MigrationPhase::kAborted:
      return slot->phase;
  }
  return Status::Internal("corrupt migration phase");
}

Status ShardMigrator::Abort(ShardId shard) {
  if (shard >= slots_.size()) return Status::InvalidArgument("unknown shard");
  Slot* slot = slots_[shard].get();
  MutexLock lock(&slot->mu);
  if (slot->phase != MigrationPhase::kCopying &&
      slot->phase != MigrationPhase::kDualWrite &&
      slot->phase != MigrationPhase::kCutOver) {
    return Status::FailedPrecondition("no active migration");
  }
  AbortLocked(slot);
  return Status::OK();
}

}  // namespace esdb
