#ifndef ESDB_REPLICATION_REPLICATION_H_
#define ESDB_REPLICATION_REPLICATION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "storage/shard_store.h"

namespace esdb {

// How a replica is kept up to date (Section 5.2).
enum class ReplicationMode {
  // Elasticsearch default: the primary forwards every write and the
  // replica re-executes it (doubles index-computation cost).
  kLogical,
  // ESDB: the replica's translog is synchronized in real time, but
  // index data moves as encoded segment files (snapshot diff +
  // pre-replication of merged segments).
  kPhysical,
};

struct ReplicationStats {
  uint64_t rounds = 0;
  uint64_t segments_copied = 0;
  uint64_t bytes_copied = 0;
  uint64_t segments_dropped = 0;
  // Index-computation proxy: documents (re)indexed on the replica.
  uint64_t replica_docs_indexed = 0;

  void Add(const ReplicationStats& other) {
    rounds += other.rounds;
    segments_copied += other.segments_copied;
    bytes_copied += other.bytes_copied;
    segments_dropped += other.segments_dropped;
    replica_docs_indexed += other.replica_docs_indexed;
  }
};

// Copies one segment into `dest` as an encoded file (EncodeFull ->
// Decode -> InstallSegment): no re-indexing, tombstone overlay carried
// along, cold segments inflated to hot. The one physical segment-copy
// primitive — quick incremental replication and live shard migration
// both ship bytes through here. Returns the encoded size.
[[nodiscard]] Result<size_t> CopySegmentInto(const SegmentView& view,
                                             ShardStore* dest);

// One round of quick incremental replication (Figure 9, steps 1-6):
// snapshot the primary's segments, diff against the replica, copy the
// missing segment files (encode/decode, no re-indexing), and drop
// replica segments the primary deleted.
[[nodiscard]] Result<ReplicationStats> ReplicateRound(const ShardStore& primary,
                                        ShardStore* replica);

// Primary shard + an optional replica under a chosen replication
// mode. The write path mirrors the paper: the op is executed on the
// primary and appended to the replica's translog in real time; under
// logical replication the replica also executes it, under physical
// replication segment files flow on Refresh(). A replica-less shard
// is a plain store: Apply and Refresh go straight to the primary, and
// ResetReplica and Failover return FailedPrecondition.
class ReplicatedShard {
 public:
  // `replication` nullopt builds a replica-less shard. A null
  // `primary` starts from an empty store; a given one (e.g. a
  // just-promoted replica) is wrapped as the primary with a fresh,
  // empty replica that the next Refresh() fills in a full round.
  ReplicatedShard(const IndexSpec* spec, ShardStore::Options options,
                  std::optional<ReplicationMode> replication,
                  std::unique_ptr<ShardStore> primary = nullptr);

  // Discards the replica (its node failed) and starts an empty one;
  // the next Refresh() re-copies every segment. Writes between now
  // and then accumulate in the new replica translog as usual. Fails
  // (replica left empty but consistent) if the primary's translog
  // tail cannot be read back — a silently skipped op here would be
  // missing from the replica forever, surfacing only at failover.
  [[nodiscard]] Status ResetReplica();

  bool has_replica() const { return has_replica_; }
  ShardStore* primary() { return primary_.get(); }
  const ShardStore* primary() const { return primary_.get(); }
  ShardStore* replica() { return replica_.get(); }
  const ShardStore* replica() const { return replica_.get(); }

  // Write: primary executes; the replica's translog is synchronized
  // in real time; logical mode re-executes on the replica. Serialized
  // against Refresh() on mu_, so a maintenance-pool refresh round and
  // a client write on the same shard never race on the replication
  // bookkeeping.
  [[nodiscard]] Result<uint64_t> Apply(const WriteOp& op);

  // Refresh primary (buffer -> segment) and merge. Physical mode then
  // runs one quick-incremental replication round; a merge on the primary
  // triggers pre-replication of the merged segment before the next
  // regular round would pick it up.
  [[nodiscard]] Status Refresh();

  // Promotes the replica to primary after a primary failure: replays
  // the replica translog tail not yet covered by replicated segments.
  // Returns the promoted store (the old primary is discarded).
  [[nodiscard]] Result<std::unique_ptr<ShardStore>> Failover() &&;

  // Copy-out under mu_: safe to read while a maintenance-pool
  // Refresh() is adding to the counters.
  ReplicationStats stats() const {
    MutexLock lock(&mu_);
    return stats_;
  }

  // Visibility delay proxy: number of Refresh() rounds where the
  // replica still lacked the newest primary segment at entry.
  uint64_t replica_lag_rounds() const {
    MutexLock lock(&mu_);
    return replica_lag_rounds_;
  }

 private:
  const IndexSpec* spec_;
  ShardStore::Options options_;  // lint:unguarded(set in the constructor, read-only afterwards)
  const ReplicationMode mode_;
  // Fixed at construction, so the replica-less data path reads it
  // without mu_.
  const bool has_replica_;
  // Single writer per replicated shard: Apply/Refresh/ResetReplica/
  // Failover serialize here, and the replication bookkeeping below is
  // guarded by it. mu_ is held while calling into the primary's and
  // replica's ShardStore mutators, so it sits ABOVE ShardStore::
  // write_mu_ in the lock hierarchy (see DESIGN.md).
  mutable Mutex mu_;
  // The store pointers themselves are rebound only by membership
  // operations (ResetReplica / Failover), which the cluster layer
  // serializes externally; the accessors above hand the raw pointers
  // out, so guarding them here would be a fiction.
  std::unique_ptr<ShardStore> primary_;  // lint:unguarded(rebound only by externally serialized membership ops — see above)
  std::unique_ptr<ShardStore> replica_;  // lint:unguarded(rebound only by externally serialized membership ops — see above)
  // Replica-side translog (real-time sync).
  Translog replica_log_ GUARDED_BY(mu_);
  // Logical mode: ops executed on the replica.
  uint64_t replica_applied_seq_ GUARDED_BY(mu_) = 0;
  ReplicationStats stats_ GUARDED_BY(mu_);
  uint64_t replica_lag_rounds_ GUARDED_BY(mu_) = 0;
};

}  // namespace esdb

#endif  // ESDB_REPLICATION_REPLICATION_H_
