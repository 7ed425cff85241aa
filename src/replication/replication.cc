#include "replication/replication.h"

#include <algorithm>

#include "common/failpoint.h"

namespace esdb {

Result<size_t> CopySegmentInto(const SegmentView& view, ShardStore* dest) {
  // The segment file folds the pinned overlay into its delete bitmap;
  // the destination decodes it back out as its own overlay. A cold
  // source segment is inflated for the copy (EncodeFull) — replicas
  // and migration targets always hold hot state so they serve at full
  // speed immediately.
  ESDB_ASSIGN_OR_RETURN(const std::string bytes, view.EncodeFull());
  std::shared_ptr<const Tombstones> tombstones;
  ESDB_ASSIGN_OR_RETURN(std::unique_ptr<Segment> copy,
                        Segment::Decode(bytes, &tombstones));
  dest->InstallSegment(std::move(copy), std::move(tombstones));
  return bytes.size();
}

Result<ReplicationStats> ReplicateRound(const ShardStore& primary,
                                        ShardStore* replica) {
  ReplicationStats stats;
  stats.rounds = 1;

  // Step 1-2 (Figure 9): the current primary snapshot (segment ids).
  // Both snapshots are pinned epochs, so the round runs safely while
  // client DML keeps publishing new tombstone overlays on the primary
  // — the round ships a consistent point-in-time state and the next
  // round catches anything newer.
  const SegmentSnapshot primary_snapshot = primary.Snapshot();
  std::vector<uint64_t> primary_ids;
  primary_ids.reserve(primary_snapshot->size());
  for (const SegmentView& view : *primary_snapshot) {
    primary_ids.push_back(view.id());
  }

  // Step 3-4: replica computes the segment diff.
  const SegmentSnapshot replica_snapshot = replica->Snapshot();
  std::vector<uint64_t> replica_ids;
  for (const SegmentView& view : *replica_snapshot) {
    replica_ids.push_back(view.id());
  }

  // Step 5: copy missing segments as encoded files; decoding performs
  // no index computation. Existing segments are re-copied only when
  // their tombstone overlay grew (delete propagation) — detected
  // cheaply by comparing overlay counts.
  for (const SegmentView& view : *primary_snapshot) {
    bool need_copy =
        std::find(replica_ids.begin(), replica_ids.end(), view.id()) ==
        replica_ids.end();
    if (!need_copy) {
      for (const SegmentView& rview : *replica_snapshot) {
        if (rview.id() == view.id() &&
            rview.num_deleted() != view.num_deleted()) {
          need_copy = true;
          break;
        }
      }
    }
    if (!need_copy) continue;
    // Fault point: the copy stream dies mid-round (network cut,
    // replica restart). Segments already installed this round stay —
    // InstallSegment is idempotent by id — and the next round re-diffs
    // and ships the remainder, so a failed round only delays, never
    // corrupts.
    if (ESDB_FAIL_POINT(failsite::kReplicationCopySegment)) {
      return Status::Unavailable("failpoint: replication/copy-segment");
    }
    ESDB_ASSIGN_OR_RETURN(const size_t bytes,
                          CopySegmentInto(view, replica));
    ++stats.segments_copied;
    stats.bytes_copied += bytes;
  }

  // Step 6: drop segments the primary deleted (merged away).
  const size_t before = replica->Snapshot()->size();
  replica->RetainSegments(primary_ids);
  stats.segments_dropped += before - replica->Snapshot()->size();
  return stats;
}

ReplicatedShard::ReplicatedShard(const IndexSpec* spec,
                                 ShardStore::Options options,
                                 std::optional<ReplicationMode> replication,
                                 std::unique_ptr<ShardStore> primary)
    : spec_(spec),
      options_(options),
      mode_(replication.value_or(ReplicationMode::kPhysical)),
      has_replica_(replication.has_value()) {
  primary_ = primary != nullptr ? std::move(primary)
                                : std::make_unique<ShardStore>(spec, options);
  if (has_replica_) replica_ = std::make_unique<ShardStore>(spec, options);
}

Status ReplicatedShard::ResetReplica() {
  if (!has_replica_) return Status::FailedPrecondition("shard has no replica");
  MutexLock lock(&mu_);
  replica_ = std::make_unique<ShardStore>(spec_, options_);
  replica_log_ = Translog();
  // Peer recovery runs both phases before the rebuild is visible:
  // ship the primary's published segments now (phase 1), then seed
  // the translog tail (phase 2). Deferring the segment copy to the
  // next replication round would leave a window where the shard's
  // only full copy is the primary — bulk-migrated segments in
  // particular have no translog backing, so a failover inside that
  // window would silently drop them.
  ESDB_ASSIGN_OR_RETURN(ReplicationStats round,
                        ReplicateRound(*primary_, replica_.get()));
  stats_.Add(round);
  // An unreadable tail op is an error, not a skip: the op is not in
  // any replicated segment yet, so dropping it here would lose the
  // write on the next failover.
  for (uint64_t seq = primary_->refreshed_seq();
       seq < primary_->translog().end_seq(); ++seq) {
    ESDB_ASSIGN_OR_RETURN(WriteOp op, primary_->translog().Get(seq));
    replica_log_.Append(op);
  }
  return Status::OK();
}

Result<uint64_t> ReplicatedShard::Apply(const WriteOp& op) {
  if (!has_replica_) return primary_->Apply(op);
  MutexLock lock(&mu_);
  ESDB_ASSIGN_OR_RETURN(uint64_t seq, primary_->Apply(op));
  if (mode_ == ReplicationMode::kLogical) {
    // Replica re-executes the op (own translog, own indexing cost).
    auto replica_seq = replica_->Apply(op);
    if (!replica_seq.ok()) return replica_seq.status();
    ++stats_.replica_docs_indexed;
    ++replica_applied_seq_;
  } else {
    // Real-time translog synchronization only; no execution.
    replica_log_.Append(op);
  }
  return seq;
}

Status ReplicatedShard::Refresh() {
  if (!has_replica_) {
    primary_->Refresh();
    primary_->MaybeMerge();
    return Status::OK();
  }
  MutexLock lock(&mu_);
  if (mode_ == ReplicationMode::kLogical) {
    primary_->Refresh();
    primary_->MaybeMerge();
    replica_->Refresh();
    replica_->MaybeMerge();
    return Status::OK();
  }

  // Visibility-delay proxy: does the replica already have everything?
  {
    const SegmentSnapshot primary_segments = primary_->Snapshot();
    if (!primary_segments->empty()) {
      const uint64_t newest = primary_segments->back().id();
      bool replica_has = false;
      const SegmentSnapshot replica_segments = replica_->Snapshot();
      for (const SegmentView& view : *replica_segments) {
        if (view.id() == newest) {
          replica_has = true;
          break;
        }
      }
      if (!replica_has) ++replica_lag_rounds_;
    }
  }

  primary_->Refresh();
  // Fault point: the whole catch-up round is unreachable (replica
  // partitioned). The primary refreshed; replication lag grows until
  // a later Refresh() heals it.
  if (ESDB_FAIL_POINT(failsite::kReplicationCatchup)) {
    return Status::Unavailable("failpoint: replication/catchup");
  }
  if (primary_->MaybeMerge()) {
    // Pre-replication of merged segments: ship the merge result
    // immediately, on its own round, so it never delays the
    // replication of freshly refreshed segments.
    ESDB_ASSIGN_OR_RETURN(ReplicationStats pre,
                          ReplicateRound(*primary_, replica_.get()));
    stats_.Add(pre);
  }
  ESDB_ASSIGN_OR_RETURN(ReplicationStats round,
                        ReplicateRound(*primary_, replica_.get()));
  stats_.Add(round);

  // Replicated segments now cover the primary's refreshed history;
  // the replica translog only needs the tail beyond it.
  replica_log_.TruncateBefore(primary_->refreshed_seq());
  return Status::OK();
}

Result<std::unique_ptr<ShardStore>> ReplicatedShard::Failover() && {
  if (!has_replica_) return Status::FailedPrecondition("shard has no replica");
  MutexLock lock(&mu_);
  if (mode_ == ReplicationMode::kLogical) {
    // The logical replica is already an independent, current store.
    return std::move(replica_);
  }
  // Physical replica: segments are current up to the last replication
  // round; replay the synchronized translog tail (ops are idempotent
  // upserts/deletes, so overlap with segment contents is harmless).
  for (uint64_t seq = replica_log_.begin_seq(); seq < replica_log_.end_seq();
       ++seq) {
    ESDB_ASSIGN_OR_RETURN(WriteOp op, replica_log_.Get(seq));
    ESDB_RETURN_IF_ERROR(replica_->ApplyNoLog(op));
  }
  replica_->Refresh();
  return std::move(replica_);
}

}  // namespace esdb
