#ifndef ESDB_STORAGE_SHARD_STORE_H_
#define ESDB_STORAGE_SHARD_STORE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "document/document.h"
#include "storage/index_spec.h"
#include "storage/merge_policy.h"
#include "storage/segment.h"
#include "storage/translog.h"

namespace esdb {

class BlockCache;

// Per-shard byte accounting split by where the bytes actually live:
// RAM the shard holds right now (segments + cold-segment metadata +
// in-RAM compressed payloads), the translog, and compressed cold
// bytes parked on disk. total() is the logical shard weight; callers
// that size RAM budgets (tenant packing, eviction) read
// resident_bytes, callers that size disks read cold_bytes. The old
// single-number SizeBytes() conflated these — a spilled shard looked
// as expensive as a resident one.
struct ShardSizeBreakdown {
  size_t resident_bytes = 0;  // RAM: segments, overlays, cold metadata
  size_t translog_bytes = 0;  // RAM: unflushed translog
  size_t cold_bytes = 0;      // disk: compressed cold files
  size_t total() const { return resident_bytes + translog_bytes + cold_bytes; }
};

// Storage engine for one shard: an in-memory write buffer, a set of
// immutable segments, and a translog. Mirrors the Elasticsearch write
// path (Section 3.3):
//   Apply()   appends to the translog and indexes into the buffer;
//   Refresh() turns the buffer into a searchable segment (near-real-
//             time search: un-refreshed writes are not visible);
//   Flush()   checkpoints (truncates) the translog;
//   MaybeMerge() runs the tiered merge policy.
//
// Thread model: single writer per shard, many concurrent readers —
// and DML is fully concurrent with queries on the same shard. The
// searchable state is published as an immutable epoch
// (SegmentSnapshot = shared_ptr<const ShardView>): Snapshot() copies
// one shared_ptr under a tiny per-shard publication mutex (a
// reference-count bump — constant time, never blocking on a refresh,
// merge, or delete in flight, which all build the next epoch entirely
// outside that lock). Deletes are copy-on-write tombstone overlays:
// a DELETE copies the target segment's Tombstones, sets one more bit,
// and publishes a new epoch — it never writes into state a reader
// might be scanning, so a pinned snapshot observes a frozen set of
// deletes for its whole run. All mutators
// (Apply/Refresh/Flush/MaybeMerge/InstallSegment/RetainSegments)
// serialize on an internal per-shard writer mutex, so different
// shards' writers proceed fully in parallel while this shard's
// readers proceed concurrently with its writer.
class ShardStore {
 public:
  // Hot/cold tier wiring. With `enabled` false (default) the store
  // behaves exactly as before: every segment fully resident. With it
  // on, merges become the tier-transition point — merge output for a
  // cold-classified shard is demoted through ColdSegment::FromSegment
  // (compressed; spilled to `spill_dir` when set, parked compressed in
  // RAM otherwise) and promoted back by the next merge after the
  // shard turns hot.
  struct TierOptions {
    bool enabled = false;
    // Directory for spilled cold files ("" = keep compressed payload
    // in RAM). Files are named cold-<store-uid>-<segment-id>.cold so
    // many shards can share one directory; they are deleted when the
    // last snapshot referencing them dies.
    std::string spill_dir;
    // Shared pinned-block LRU for decompressed cold reads (null =
    // uncached: every cold read decompresses).
    std::shared_ptr<BlockCache> cache;
  };

  struct Options {
    // Auto-refresh once the buffer holds this many docs (0 = manual).
    size_t refresh_doc_count = 4096;
    MergePolicy::Options merge;
    TierOptions tier;
  };

  ShardStore(const IndexSpec* spec, Options options);
  explicit ShardStore(const IndexSpec* spec)
      : ShardStore(spec, Options{}) {}

  ShardStore(const ShardStore&) = delete;
  ShardStore& operator=(const ShardStore&) = delete;

  // --- Write path -----------------------------------------------------

  // Applies a write op: INSERT/UPDATE upsert by record_id, DELETE
  // removes by record_id. Returns the translog sequence number.
  // Safe to call while queries are in flight on this shard.
  [[nodiscard]] Result<uint64_t> Apply(const WriteOp& op);

  // Re-applies an op during recovery or replica catch-up: identical to
  // Apply but does not append to the local translog (the caller is
  // replaying it).
  [[nodiscard]] Status ApplyNoLog(const WriteOp& op);

  // Makes buffered writes searchable. Returns true if a segment was
  // produced (no-op on an empty buffer).
  bool Refresh();

  // Checkpoints: truncates the translog below the highest sequence
  // number fully contained in segments (i.e. everything refreshed).
  void Flush();

  // Runs one round of the merge policy; returns true if it merged.
  // Merging folds each input segment's tombstone overlay into the
  // merged segment (only live docs are carried over), so the overlay is
  // the transient delete representation and merges are the GC.
  // Under tiering, merges are also the tier-transition point: when no
  // ordinary merge is due, segments whose tier disagrees with the
  // shard's classification are rewritten into the right tier.
  bool MaybeMerge();

  // --- Tiering ----------------------------------------------------------

  // Admission/eviction signal from the tenant monitor: classifies
  // this shard's *target* tier. Takes effect at the next merge
  // (MaybeMerge rewrites mismatched segments); queries on a cold
  // shard promote blocks through the cache immediately, without
  // waiting for reclassification. No-op unless tiering is enabled.
  void SetTierCold(bool cold) {
    tier_cold_.store(cold, std::memory_order_relaxed);
  }
  bool tier_cold() const {
    return tier_cold_.load(std::memory_order_relaxed);
  }

  // --- Read path --------------------------------------------------------

  // Current epoch (constant-time shared_ptr copy under the
  // publication mutex; the lock spans only the refcount bump, never
  // segment building). The returned view — segment list AND tombstone
  // overlays — is immutable and stable across later refreshes,
  // merges, and deletes; holding it keeps every segment in it alive.
  SegmentSnapshot Snapshot() const {
    MutexLock lock(&epoch_mu_);
    return segments_;
  }

  // Latest live version of a record: the write buffer first (a
  // writer's own un-refreshed insert/update/delete is visible —
  // read-your-writes), then segments newest-first. Search stays
  // near-real-time (only refreshed docs are query-visible); this
  // point-lookup path is the stronger one because recovery
  // verification and id-based fetches must see every applied op, not
  // just refreshed ones.
  [[nodiscard]] Result<Document> GetByRecordId(int64_t record_id) const;

  // --- Stats ------------------------------------------------------------

  size_t num_live_docs() const;
  size_t buffered_docs() const {
    return buffered_count_.load(std::memory_order_relaxed);
  }
  // Shard-size signal for the balancer and replication layer:
  // translog bytes (tracked atomically — no lock) plus the
  // live-fraction-scaled LOGICAL footprint of each segment, so
  // tombstoned docs stop counting toward a shard's weight as soon as
  // the delete is published (not only after the merge GCs it).
  // Tier-independent: equals SizeBreakdown().total() modulo the
  // live-fraction scaling of resident segments.
  size_t SizeBytes() const;
  // Where the bytes live (RAM vs translog vs cold disk) — see
  // ShardSizeBreakdown. resident + translog + cold, unscaled.
  ShardSizeBreakdown SizeBreakdown() const;
  // Convenience: SizeBreakdown().resident_bytes + translog (the RAM
  // the shard pins regardless of query activity).
  size_t ResidentBytes() const;
  // Writer-context only: the translog is mutated under the writer
  // mutex, so only maintenance/persistence callers — externally
  // serialized against this shard's writers — may walk it. The
  // returned reference outlives any lock we could take here, so the
  // access is deliberately unchecked.
  const Translog& translog() const NO_THREAD_SAFETY_ANALYSIS {
    return translog_;
  }
  uint64_t refreshed_seq() const {
    return refreshed_seq_.load(std::memory_order_acquire);
  }
  size_t num_segments() const { return Snapshot()->size(); }

  // Live (non-deleted) buffered docs per tenant — the write-buffer
  // complement of per-tenant storage proportions, so rule
  // initialization can weight tenants that are hot *right now* but
  // not yet refreshed. Takes only the buffer mutex: never stalls
  // behind a refresh or merge holding the writer mutex.
  std::map<int64_t, uint64_t> BufferedTenantCounts() const;

  // Cumulative count of docs rewritten by merges (Segment::Merge) —
  // the work the merge mechanism spends (used by replication
  // experiments).
  uint64_t merged_docs_total() const {
    MutexLock lock(&write_mu_);
    return merged_docs_total_;
  }

  // Atomic export for live shard migration (cluster/migration.h): the
  // current epoch plus the translog tail not yet covered by it,
  // captured together under the writer mutex so snapshot + tail is
  // exactly the set of acknowledged ops at the capture instant. The
  // snapshot pins every segment in it (a concurrent merge on this
  // shard cannot free them), and the tail is copied out (a later
  // Flush cannot truncate it away from the migration).
  struct PinnedEpoch {
    SegmentSnapshot snapshot;      // segments covering [0, boundary_seq)
    uint64_t boundary_seq = 0;     // refreshed_seq at capture
    std::vector<WriteOp> tail;     // ops in [boundary_seq, end_seq)
  };
  [[nodiscard]] Result<PinnedEpoch> ExportPinnedEpoch() const;

  // --- Recovery & replication hooks --------------------------------------

  // Rebuilds a store by replaying `log` (crash recovery, Section 3.3).
  [[nodiscard]] static Result<std::unique_ptr<ShardStore>> Recover(const IndexSpec* spec,
                                                     const Translog& log,
                                                     Options options);

  // Installs a decoded segment received from a primary (physical
  // replication), with the tombstone overlay decoded alongside it
  // (null = no deletes). Replaces any existing segment with the same
  // id — overlay included, which is how delete propagation reaches
  // replicas.
  void InstallSegment(std::shared_ptr<const Segment> segment,
                      std::shared_ptr<const Tombstones> tombstones = nullptr);

  // Installs a cold-tier segment handle (checkpoint recovery: the
  // manifest carries the cold file name and the tombstone overlay;
  // the payload stays compressed until first query).
  void InstallColdSegment(std::shared_ptr<const ColdSegment> cold,
                          std::shared_ptr<const Tombstones> tombstones);

  // Drops segments absent from `live_ids` (mirror of the primary's
  // snapshot after a replication round).
  void RetainSegments(const std::vector<uint64_t>& live_ids);

  // Process-unique, fixed at construction: names this store's spill
  // files and is the filter-cache domain of its segments (segment ids
  // are store-local). Uids start above the 32-bit shard-id range, so
  // they never alias a cache domain that is a shard id.
  uint64_t uid() const { return store_uid_; }

  uint64_t next_segment_id() const {
    MutexLock lock(&write_mu_);
    return next_segment_id_;
  }
  void set_next_segment_id(uint64_t id) {
    MutexLock lock(&write_mu_);
    next_segment_id_ = id;
  }

 private:
  struct BufferedDoc {
    Document doc;
    bool deleted = false;
  };

  [[nodiscard]] Status ApplyInternal(const WriteOp& op) REQUIRES(write_mu_);
  // Removes any live prior version of record_id (buffer + segments).
  // Segment hits publish a copy-on-write tombstone epoch. Can fail
  // only when a cold segment's record-id index cannot be pinned.
  [[nodiscard]] Status DeleteExisting(int64_t record_id) REQUIRES(write_mu_);
  bool RefreshLocked() REQUIRES(write_mu_);
  bool MaybeMergeLocked() REQUIRES(write_mu_);
  // Rewrites `inputs` (indexes into the current view) into one
  // segment in the shard's target tier; folds tombstones. Returns
  // false (and leaves the epoch untouched) if a cold pin or the
  // demotion fails.
  bool RewriteSegmentsLocked(const std::vector<size_t>& inputs)
      REQUIRES(write_mu_);
  // Wraps a freshly built segment in the target tier: hot passthrough
  // or ColdSegment demotion. Null segment pointer on demotion failure.
  [[nodiscard]] Result<SegmentView> WrapInTierLocked(std::unique_ptr<Segment> segment)
      REQUIRES(write_mu_);
  // Publishes the next epoch (pointer swap under epoch_mu_).
  void PublishSegments(ShardView next) REQUIRES(write_mu_);

  const IndexSpec* spec_;
  Options options_;  // lint:unguarded(fixed at construction; the mutable tier target lives in tier_cold_, an atomic)
  // Serializes all mutators of this shard (the single-writer-per-
  // shard invariant); never held by readers.
  mutable Mutex write_mu_;
  Translog translog_ GUARDED_BY(write_mu_);
  // The write buffer has its own leaf mutex (below write_mu_, never
  // held together with epoch_mu_) so buffer-sampling readers
  // (BufferedTenantCounts, rule initialization, balancer stats) don't
  // block behind a writer spending a long critical section in a
  // refresh or merge. Mutators hold write_mu_ AND buffer_mu_ when
  // touching the buffer; pure readers take buffer_mu_ alone.
  mutable Mutex buffer_mu_ ACQUIRED_AFTER(write_mu_);
  std::vector<BufferedDoc> buffer_ GUARDED_BY(buffer_mu_);
  std::unordered_map<int64_t, size_t> buffer_by_record_
      GUARDED_BY(buffer_mu_);
  // Published epoch. Writers (holding write_mu_) build the next
  // immutable ShardView outside epoch_mu_, then swap the pointer
  // under it; readers copy the pointer under it. epoch_mu_ guards
  // only that pointer — its critical sections are a few instructions,
  // so it never serializes real work, and it is a leaf in the lock
  // hierarchy: nothing is ever acquired under it. (A
  // std::atomic<shared_ptr> would be the natural fit, but libstdc++'s
  // _Sp_atomic unlocks its internal spinlock with a relaxed RMW on
  // the load path, which breaks the happens-before chain
  // ThreadSanitizer — and the letter of the memory model — requires.)
  mutable Mutex epoch_mu_ ACQUIRED_AFTER(write_mu_);
  SegmentSnapshot segments_ GUARDED_BY(epoch_mu_);
  std::atomic<size_t> buffered_count_{0};  // live docs in buffer_
  // Mirror of translog_.SizeBytes(), maintained by the writer so
  // SizeBytes() readers never touch write_mu_.
  std::atomic<size_t> translog_bytes_{0};
  uint64_t next_segment_id_ GUARDED_BY(write_mu_) = 1;
  // Translog seqs below this are in segments.
  std::atomic<uint64_t> refreshed_seq_{0};
  uint64_t merged_docs_total_ GUARDED_BY(write_mu_) = 0;
  // Target tier from the monitor (relaxed: a stale read only delays a
  // transition by one merge round).
  std::atomic<bool> tier_cold_{false};
  // See uid().
  const uint64_t store_uid_;
};

}  // namespace esdb

#endif  // ESDB_STORAGE_SHARD_STORE_H_
