#include "storage/shard_store.h"

#include <algorithm>

#include "common/failpoint.h"
#include "storage/cold_segment.h"

namespace esdb {

namespace {

uint64_t NextStoreUid() {
  static std::atomic<uint64_t> next{uint64_t(1) << 32};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

ShardStore::ShardStore(const IndexSpec* spec, Options options)
    : spec_(spec),
      options_(options),
      segments_(std::make_shared<const ShardView>()),
      store_uid_(NextStoreUid()) {}

void ShardStore::PublishSegments(ShardView next) {
  // Allocate the new epoch before taking the publication lock so the
  // critical section is a bare pointer swap.
  auto epoch = std::make_shared<const ShardView>(std::move(next));
  MutexLock lock(&epoch_mu_);
  segments_ = std::move(epoch);
}

Result<uint64_t> ShardStore::Apply(const WriteOp& op) {
  MutexLock lock(&write_mu_);
  // Crash point: the write dies before it reaches the translog — it
  // is rejected (never acknowledged), so recovery must not surface it.
  if (ESDB_FAIL_POINT(failsite::kTranslogAppend)) {
    return Status::Unavailable("failpoint: translog/append");
  }
  // Durability first: acknowledged writes are always in the translog.
  const uint64_t seq = translog_.Append(op);
  translog_bytes_.store(translog_.SizeBytes(), std::memory_order_relaxed);
  const Status status = ApplyInternal(op);
  if (!status.ok()) return status;
  return seq;
}

Status ShardStore::ApplyNoLog(const WriteOp& op) {
  MutexLock lock(&write_mu_);
  return ApplyInternal(op);
}

Result<ShardStore::PinnedEpoch> ShardStore::ExportPinnedEpoch() const {
  MutexLock lock(&write_mu_);
  PinnedEpoch pinned;
  pinned.boundary_seq = refreshed_seq_.load(std::memory_order_acquire);
  {
    MutexLock epoch(&epoch_mu_);
    pinned.snapshot = segments_;
  }
  // The tail is copied out, not referenced: an unreadable entry is an
  // error (it is an acknowledged op not yet in any segment — skipping
  // it would silently lose the write at cutover).
  pinned.tail.reserve(size_t(translog_.end_seq() - pinned.boundary_seq));
  for (uint64_t seq = pinned.boundary_seq; seq < translog_.end_seq(); ++seq) {
    ESDB_ASSIGN_OR_RETURN(WriteOp op, translog_.Get(seq));
    pinned.tail.push_back(std::move(op));
  }
  return pinned;
}

Status ShardStore::ApplyInternal(const WriteOp& op) {
  switch (op.type) {
    case OpType::kInsert:
    case OpType::kUpdate: {
      if (!op.doc.Has(kFieldRecordId)) {
        return Status::InvalidArgument("write requires record_id");
      }
      ESDB_RETURN_IF_ERROR(DeleteExisting(op.record_id()));
      size_t pending = 0;
      {
        MutexLock buf(&buffer_mu_);
        buffer_.push_back(BufferedDoc{op.doc, false});
        buffer_by_record_[op.record_id()] = buffer_.size() - 1;
        pending = buffer_.size();
      }
      buffered_count_.fetch_add(1, std::memory_order_relaxed);
      if (options_.refresh_doc_count > 0 &&
          pending >= options_.refresh_doc_count) {
        RefreshLocked();
        MaybeMergeLocked();
      }
      return Status::OK();
    }
    case OpType::kDelete:
      return DeleteExisting(op.record_id());
  }
  return Status::Internal("unknown op type");
}

Status ShardStore::DeleteExisting(int64_t record_id) {
  {
    MutexLock buf(&buffer_mu_);
    auto it = buffer_by_record_.find(record_id);
    if (it != buffer_by_record_.end()) {
      buffer_[it->second].deleted = true;
      buffer_by_record_.erase(it);
      buffered_count_.fetch_sub(1, std::memory_order_relaxed);
      // A record lives in the buffer only when its prior segment copy
      // (if any) was already tombstoned, so we can stop here.
      return Status::OK();
    }
  }
  // Newest segment first: at most one live copy exists. The delete is
  // copy-on-write: copy that one segment's overlay with one more bit
  // set, rebuild the (pointer-sized) view vector, and publish it as
  // the next epoch. In-flight readers keep their pinned epoch and see
  // the doc until they re-snapshot — exactly the frozen-deletes
  // semantics queries rely on. Cold segments keep their record-id
  // index in the pinned index part, so a delete against a cold shard
  // costs one cache pin, never a full re-inflation.
  const SegmentSnapshot snap = Snapshot();
  for (size_t i = snap->size(); i-- > 0;) {
    ESDB_ASSIGN_OR_RETURN(const SegmentView view, (*snap)[i].Pinned());
    const int64_t local = view->FindByRecordId(record_id);
    if (local >= 0 && !view.IsDeleted(DocId(local))) {
      ShardView next = *snap;
      next[i].tombstones = Tombstones::WithDeleted(
          view.tombstones.get(), uint32_t(view.num_docs()), DocId(local));
      PublishSegments(std::move(next));
      return Status::OK();
    }
  }
  return Status::OK();
}

bool ShardStore::Refresh() {
  MutexLock lock(&write_mu_);
  return RefreshLocked();
}

bool ShardStore::RefreshLocked() {
  std::vector<BufferedDoc> drained;
  {
    MutexLock buf(&buffer_mu_);
    if (buffer_.empty()) return false;
    drained.swap(buffer_);
    buffer_by_record_.clear();
  }
  buffered_count_.store(0, std::memory_order_relaxed);
  refreshed_seq_.store(translog_.end_seq(), std::memory_order_release);
  SegmentBuilder builder(spec_);
  size_t live = 0;
  for (const BufferedDoc& bd : drained) {
    if (!bd.deleted) {
      builder.Add(bd.doc);
      ++live;
    }
  }
  if (live == 0) return false;
  ShardView next = *Snapshot();
  next.push_back(SegmentView{
      std::shared_ptr<const Segment>(
          std::move(builder).Build(next_segment_id_++)),
      nullptr, nullptr});
  PublishSegments(std::move(next));
  return true;
}

void ShardStore::Flush() {
  MutexLock lock(&write_mu_);
  // Crash point: the checkpoint happened but the process dies before
  // the translog truncation. The retained tail then overlaps the
  // segments; recovery must replay it idempotently (ops at seq <
  // refreshed_seq are skipped on load).
  if (ESDB_FAIL_POINT(failsite::kTranslogTruncate)) return;
  translog_.TruncateBefore(refreshed_seq_.load(std::memory_order_relaxed));
  translog_bytes_.store(translog_.SizeBytes(), std::memory_order_relaxed);
}

bool ShardStore::MaybeMerge() {
  MutexLock lock(&write_mu_);
  return MaybeMergeLocked();
}

bool ShardStore::MaybeMergeLocked() {
  const SegmentSnapshot snap = Snapshot();
  std::vector<size_t> sizes;
  std::vector<double> deleted_fractions;
  sizes.reserve(snap->size());
  deleted_fractions.reserve(snap->size());
  for (const SegmentView& view : *snap) {
    sizes.push_back(view.SizeBytes());
    deleted_fractions.push_back(
        view.num_docs() == 0
            ? 0.0
            : double(view.num_deleted()) / double(view.num_docs()));
  }
  const std::vector<size_t> picked =
      MergePolicy(options_.merge).PickMerge(sizes, deleted_fractions);
  if (!picked.empty()) return RewriteSegmentsLocked(picked);

  // No ordinary merge due — use the round for tier transitions:
  // rewrite segments whose tier disagrees with the shard's current
  // classification (demotion compresses, promotion re-inflates).
  // Bounded by max_merge_inputs per round, like any merge.
  if (!options_.tier.enabled) return false;
  const bool want_cold = tier_cold_.load(std::memory_order_relaxed);
  std::vector<size_t> mismatched;
  for (size_t i = 0; i < snap->size(); ++i) {
    if ((*snap)[i].is_cold() != want_cold) mismatched.push_back(i);
  }
  if (mismatched.empty()) return false;
  if (mismatched.size() > options_.merge.max_merge_inputs) {
    mismatched.resize(options_.merge.max_merge_inputs);
  }
  return RewriteSegmentsLocked(mismatched);
}

bool ShardStore::RewriteSegmentsLocked(const std::vector<size_t>& picked) {
  const SegmentSnapshot snap = Snapshot();
  // Only live docs are carried over: the merge folds each input's
  // tombstone overlay into the merged segment, which therefore
  // carries no overlay of its own. Inputs are read tier-agnostically
  // (a cold input streams stored bytes block by block through the
  // cache). Any cold read or demotion failure aborts the round with
  // the epoch untouched — the merged segment REPLACES its inputs, so
  // merge failure must never lose data.
  std::vector<SegmentView> inputs;
  inputs.reserve(picked.size());
  for (size_t pos : picked) inputs.push_back((*snap)[pos]);
  auto built = Segment::Merge(inputs, *spec_, next_segment_id_);
  if (!built.ok()) return false;
  ++next_segment_id_;
  std::unique_ptr<Segment> merged = std::move(*built);
  merged_docs_total_ += merged->num_docs();
  const bool empty = merged->num_docs() == 0;
  SegmentView wrapped;
  if (!empty) {
    auto in_tier = WrapInTierLocked(std::move(merged));
    if (!in_tier.ok()) return false;
    wrapped = std::move(*in_tier);
  }

  ShardView remaining;
  remaining.reserve(snap->size() - picked.size() + 1);
  size_t next_picked = 0;
  for (size_t i = 0; i < snap->size(); ++i) {
    if (next_picked < picked.size() && picked[next_picked] == i) {
      ++next_picked;
      continue;
    }
    remaining.push_back((*snap)[i]);
  }
  if (!empty) remaining.push_back(std::move(wrapped));
  PublishSegments(std::move(remaining));
  return true;
}

Result<SegmentView> ShardStore::WrapInTierLocked(
    std::unique_ptr<Segment> segment) {
  std::shared_ptr<const Segment> seg(std::move(segment));
  if (!options_.tier.enabled ||
      !tier_cold_.load(std::memory_order_relaxed)) {
    return SegmentView{std::move(seg), nullptr, nullptr};
  }
  std::string spill_path;
  if (!options_.tier.spill_dir.empty()) {
    spill_path = options_.tier.spill_dir + "/cold-" +
                 std::to_string(store_uid_) + "-" +
                 std::to_string(seg->id()) + ".cold";
  }
  ESDB_ASSIGN_OR_RETURN(
      std::shared_ptr<const ColdSegment> cold,
      ColdSegment::FromSegment(*seg, spill_path, options_.tier.cache));
  return SegmentView{nullptr, nullptr, std::move(cold)};
}

Result<Document> ShardStore::GetByRecordId(int64_t record_id) const {
  // Buffer first, newest wins: an applied-but-unrefreshed
  // insert/update must be returned and an unrefreshed delete must
  // hide the older segment copy (buffer_by_record_ only holds live
  // entries — DeleteExisting erases on delete, and any prior segment
  // copy of a buffered record is already tombstoned). Without this,
  // point lookups silently time-travel to the pre-refresh state.
  {
    MutexLock buf(&buffer_mu_);
    auto it = buffer_by_record_.find(record_id);
    if (it != buffer_by_record_.end()) {
      return buffer_[it->second].doc;
    }
  }
  const SegmentSnapshot snap = Snapshot();
  for (size_t i = snap->size(); i-- > 0;) {
    ESDB_ASSIGN_OR_RETURN(const SegmentView view, (*snap)[i].Pinned());
    const int64_t local = view->FindByRecordId(record_id);
    if (local >= 0 && !view.IsDeleted(DocId(local))) {
      return view.GetDocument(DocId(local));
    }
  }
  return Status::NotFound("record not found");
}

size_t ShardStore::num_live_docs() const {
  const SegmentSnapshot snap = Snapshot();
  size_t n = 0;
  for (const SegmentView& view : *snap) n += view.num_live_docs();
  return n;
}

size_t ShardStore::SizeBytes() const {
  size_t bytes = translog_bytes_.load(std::memory_order_relaxed);
  const SegmentSnapshot snap = Snapshot();
  for (const SegmentView& view : *snap) bytes += view.LiveSizeBytes();
  return bytes;
}

ShardSizeBreakdown ShardStore::SizeBreakdown() const {
  ShardSizeBreakdown out;
  out.translog_bytes = translog_bytes_.load(std::memory_order_relaxed);
  const SegmentSnapshot snap = Snapshot();
  for (const SegmentView& view : *snap) {
    out.resident_bytes += view.ResidentBytes();
    out.cold_bytes += view.ColdBytes();
  }
  return out;
}

size_t ShardStore::ResidentBytes() const {
  const ShardSizeBreakdown b = SizeBreakdown();
  return b.resident_bytes + b.translog_bytes;
}

std::map<int64_t, uint64_t> ShardStore::BufferedTenantCounts() const {
  MutexLock buf(&buffer_mu_);
  std::map<int64_t, uint64_t> counts;
  for (const BufferedDoc& bd : buffer_) {
    if (bd.deleted) continue;
    const Value& v = bd.doc.Get(kFieldTenantId);
    if (v.is_int()) counts[v.as_int()] += 1;
  }
  return counts;
}

Result<std::unique_ptr<ShardStore>> ShardStore::Recover(const IndexSpec* spec,
                                                        const Translog& log,
                                                        Options options) {
  auto store = std::make_unique<ShardStore>(spec, options);
  for (uint64_t seq = log.begin_seq(); seq < log.end_seq(); ++seq) {
    ESDB_ASSIGN_OR_RETURN(WriteOp op, log.Get(seq));
    // Replay through Apply so the recovered store owns an equivalent
    // translog tail.
    auto applied = store->Apply(op);
    if (!applied.ok()) return applied.status();
  }
  return store;
}

void ShardStore::InstallSegment(
    std::shared_ptr<const Segment> segment,
    std::shared_ptr<const Tombstones> tombstones) {
  MutexLock lock(&write_mu_);
  ShardView next = *Snapshot();
  for (SegmentView& existing : next) {
    if (existing.id() == segment->id()) {
      existing = SegmentView{std::move(segment), std::move(tombstones), nullptr};
      PublishSegments(std::move(next));
      return;
    }
  }
  next.push_back(SegmentView{std::move(segment), std::move(tombstones), nullptr});
  std::sort(next.begin(), next.end(),
            [](const SegmentView& a, const SegmentView& b) {
              return a.id() < b.id();
            });
  next_segment_id_ = std::max(next_segment_id_, next.back().id() + 1);
  PublishSegments(std::move(next));
}

void ShardStore::InstallColdSegment(
    std::shared_ptr<const ColdSegment> cold,
    std::shared_ptr<const Tombstones> tombstones) {
  MutexLock lock(&write_mu_);
  ShardView next = *Snapshot();
  const uint64_t id = cold->id();
  SegmentView view{nullptr, std::move(tombstones), std::move(cold)};
  bool replaced = false;
  for (SegmentView& existing : next) {
    if (existing.id() == id) {
      existing = std::move(view);
      replaced = true;
      break;
    }
  }
  if (!replaced) next.push_back(std::move(view));
  std::sort(next.begin(), next.end(),
            [](const SegmentView& a, const SegmentView& b) {
              return a.id() < b.id();
            });
  next_segment_id_ = std::max(next_segment_id_, next.back().id() + 1);
  PublishSegments(std::move(next));
}

void ShardStore::RetainSegments(const std::vector<uint64_t>& live_ids) {
  MutexLock lock(&write_mu_);
  ShardView next = *Snapshot();
  next.erase(std::remove_if(next.begin(), next.end(),
                            [&](const SegmentView& view) {
                              return std::find(live_ids.begin(),
                                               live_ids.end(),
                                               view.id()) == live_ids.end();
                            }),
             next.end());
  PublishSegments(std::move(next));
}

}  // namespace esdb
