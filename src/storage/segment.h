#ifndef ESDB_STORAGE_SEGMENT_H_
#define ESDB_STORAGE_SEGMENT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "document/document.h"
#include "storage/attribute_sidecar.h"
#include "storage/column_stats.h"
#include "storage/doc_values.h"
#include "storage/index_spec.h"
#include "storage/inverted_index.h"
#include "storage/posting.h"
#include "storage/sorted_key_index.h"

namespace esdb {

class Tombstones;
class ColdSegment;
struct SegmentView;

// Immutable index unit, the analog of a Lucene segment file: stored
// documents, per-field inverted indexes, composite sorted-key indexes
// and doc values, built once at refresh/merge time. A Segment is
// FULLY immutable after construction — deletes live outside it, in a
// per-epoch Tombstones overlay carried alongside the segment by the
// shard store's published snapshot (SegmentView below). That is what
// lets DML run concurrently with queries: a DELETE never writes into
// state a reader might be scanning.
class Segment {
 public:
  // Segments are built by SegmentBuilder or decoded by Decode.
  Segment(const Segment&) = delete;
  Segment& operator=(const Segment&) = delete;

  uint64_t id() const { return id_; }
  size_t num_docs() const { return size_t(num_docs_); }

  // --- Read paths used by the query executor -------------------------

  // Exact-term postings for `field` (term = Value::EncodeSortable()
  // for keyword fields, analyzer token for text fields). Empty list
  // when the field has no inverted index.
  const PostingList& Postings(std::string_view field,
                              std::string_view term) const;

  // Postings union candidates for encoded terms in [lo, hi]
  // (single-column index range predicate).
  std::vector<const PostingList*> PostingsRange(std::string_view field,
                                                std::string_view lo,
                                                std::string_view hi) const;

  bool HasInvertedIndex(std::string_view field) const;

  // Composite index by name, or nullptr.
  const SortedKeyIndex* CompositeIndex(std::string_view name) const;
  const std::map<std::string, SortedKeyIndex>& composite_indexes() const {
    return composites_;
  }

  const DocValues& doc_values() const { return *doc_values_; }

  // Decoded "attributes" sub-attribute sidecar, parsed once at
  // freeze time (never null for built/decoded segments). Lets
  // `attributes.<key>` predicates resolve without re-parsing the raw
  // string per doc.
  const AttributeSidecar* attribute_sidecar() const {
    return attr_sidecar_.get();
  }

  // Per-column sketches computed at freeze time (never null for
  // built/decoded segments). Serialized as the mandatory trailer of
  // the segment / index-part encodings.
  const ColumnStats* column_stats() const { return column_stats_.get(); }

  // Stored document by local id.
  [[nodiscard]] Result<Document> GetDocument(DocId id) const;

  // Local id of the (unique) doc with this record id, or -1.
  int64_t FindByRecordId(int64_t record_id) const;

  // --- Merge -----------------------------------------------------------

  // Structural merge, the way Lucene's SegmentMerger works: the
  // segment SegmentBuilder would build under `spec` from the live docs
  // of `inputs` in order (same Encode() bytes, SizeBytes() and sidecar
  // lookups), made without re-indexing a document. It copies stored
  // bytes and live doc-value slots; renumbers postings, composite
  // entries and record ids past the deleted docs; remaps the attribute
  // sidecar; and rebuilds only the ColumnStats, from the merged
  // columns. Cold inputs pin their index part and read stored bytes
  // from their row blocks; a failed read returns its Status. Inputs
  // must have been built under `spec` (indexing is copied, not
  // redone) and, like every shard-store segment, hold each record id
  // at most once.
  [[nodiscard]] static Result<std::unique_ptr<Segment>> Merge(
      const std::vector<SegmentView>& inputs, const IndexSpec& spec,
      uint64_t segment_id);

  // --- Sizing & replication -------------------------------------------

  // Approximate byte footprint of the index data; counted as
  // segment-file size by the shard store and the replication layer.
  // Deletedness is not segment state — see SegmentView::SizeBytes().
  size_t SizeBytes() const { return size_bytes_; }

  // Full segment-file round trip. The file format carries a delete
  // bitmap so physical replication propagates tombstones; pass the
  // epoch's overlay to fold it in (null = no deletes). Decoding a
  // segment does NOT redo any index computation — this is what makes
  // physical replication cheap (Section 5.2). Decode surfaces the
  // file's tombstones through `tombstones` (set to null when the
  // bitmap is empty); callers that pass nullptr drop them.
  std::string Encode(const Tombstones* tombstones = nullptr) const;
  [[nodiscard]] static Result<std::unique_ptr<Segment>> Decode(
      std::string_view data,
      std::shared_ptr<const Tombstones>* tombstones = nullptr);

  // --- Cold tier (storage/cold_segment.h) -----------------------------

  // True when stored documents are resident. The pinned index part of
  // a cold segment (DecodeIndexPart output) serves every executor read
  // path EXCEPT GetDocument — cold document reads go through
  // ColdSegment::ReadDocument, which decompresses only the row block
  // holding the doc.
  bool has_stored_docs() const { return stored_.size() == num_docs_; }
  const std::vector<std::string>& stored_docs() const { return stored_; }

  // Index-part round trip: everything Encode writes EXCEPT the stored
  // documents and the delete bitmap. Stored docs live in separately
  // compressed row blocks of the cold file (so a cold query never
  // re-inflates them wholesale); tombstones live in the manifest's
  // per-segment overlay. Section encodings are shared with Encode.
  std::string EncodeIndexPart() const;
  [[nodiscard]] static Result<std::unique_ptr<Segment>> DecodeIndexPart(
      std::string_view data);

 private:
  friend class SegmentBuilder;
  friend class ColdSegment;  // LoadFull() re-attaches stored docs
  Segment() = default;

  void RecomputeSize();

  // Shared section encodings between Encode and EncodeIndexPart:
  // inverted indexes, composites, doc values, record ids (everything
  // between the stored docs and the delete bitmap, in file order).
  void EncodeIndexSectionsTo(std::string* out) const;
  [[nodiscard]] Status DecodeIndexSections(std::string_view data, size_t* pos);

  uint64_t id_ = 0;
  uint32_t num_docs_ = 0;
  std::vector<std::string> stored_;                   // serialized documents
  std::map<std::string, InvertedIndex> inverted_;     // field -> index
  std::map<std::string, SortedKeyIndex> composites_;  // name -> index
  std::unique_ptr<DocValues> doc_values_;
  std::unique_ptr<AttributeSidecar> attr_sidecar_;  // derived, not encoded
  std::unique_ptr<ColumnStats> column_stats_;       // encoded trailer
  std::unordered_map<int64_t, DocId> record_ids_;
  size_t size_bytes_ = 0;
};

// Immutable tombstone overlay for one segment: which local doc ids
// are deleted as of the epoch that published it. Copy-on-write: a
// DELETE builds a copy with one more bit set (WithDeleted) and
// publishes it in the next snapshot epoch; the instance itself is
// never mutated after construction, so readers holding a snapshot can
// consult it with no synchronization.
class Tombstones {
 public:
  // COW step: a copy of `base` (null = empty) sized for a segment of
  // `num_docs` docs, with `id` additionally marked deleted.
  static std::shared_ptr<const Tombstones> WithDeleted(
      const Tombstones* base, uint32_t num_docs, DocId id);

  // Wraps a decoded bitmap; returns null when no bit is set (the
  // "no deletes" overlay is represented by the null pointer).
  static std::shared_ptr<const Tombstones> FromBits(std::vector<bool> bits);

  bool Test(DocId id) const { return id < bits_.size() && bits_[id]; }
  size_t count() const { return count_; }
  size_t SizeBytes() const { return bits_.size() / 8; }
  const std::vector<bool>& bits() const { return bits_; }

 private:
  Tombstones() = default;

  std::vector<bool> bits_;
  size_t count_ = 0;
};

// One segment as seen through a pinned snapshot: the immutable
// segment plus the tombstone overlay of that epoch (null = nothing
// deleted). Deletedness is resolved against the overlay the reader
// pinned, so a query observes a frozen set of deletes for its whole
// run even while DML publishes newer epochs.
//
// Tiering: a view is either HOT (`segment` set, `cold` null — the
// whole segment resident in RAM, exactly the pre-tiering layout) or
// COLD (`cold` set — only compressed payload plus metadata held; see
// storage/cold_segment.h). Readers that need the Segment interface
// call Pinned() first, which for a cold view materializes the decoded
// index part through the block cache and returns a view whose
// `segment` points at it (stored docs stay compressed; document reads
// dispatch through GetDocument below). Metadata accessors (id,
// num_docs, sizes, deletedness) never touch the payload.
struct SegmentView {
  std::shared_ptr<const Segment> segment;
  std::shared_ptr<const Tombstones> tombstones;
  std::shared_ptr<const ColdSegment> cold;

  // Direct Segment access: valid for hot or pinned views only.
  const Segment* operator->() const { return segment.get(); }
  const Segment& operator*() const { return *segment; }

  bool is_cold() const { return cold != nullptr; }

  // Tier-agnostic metadata (no payload touch for cold views).
  uint64_t id() const;
  size_t num_docs() const;

  // Returns a view whose `segment` is usable: hot views return a copy
  // of themselves; cold views pin the decoded index part through the
  // block cache (decompressing it on first touch). The pin lives as
  // long as the returned view — executors pin once per segment per
  // query, so eviction never invalidates an in-flight scan.
  [[nodiscard]] Result<SegmentView> Pinned() const;

  // Stored-document read across tiers: hot reads the resident doc,
  // cold decompresses only the row block holding it (late
  // materialization — a cold query never re-inflates the segment).
  [[nodiscard]] Result<Document> GetDocument(DocId id) const;

  bool IsDeleted(DocId id) const {
    return tombstones != nullptr && tombstones->Test(id);
  }
  size_t num_deleted() const {
    return tombstones != nullptr ? tombstones->count() : 0;
  }
  size_t num_live_docs() const { return num_docs() - num_deleted(); }

  // All live doc ids of this epoch as a posting list.
  PostingList LiveDocs() const;

  // Logical footprint: UNCOMPRESSED index+doc data plus the overlay
  // bitmap, independent of tier (a demotion does not change what the
  // merge policy or replication cost model sees).
  size_t SizeBytes() const;
  // Footprint scaled to the live fraction — the shard-size signal the
  // balancer and replication layer consume. A segment that is half
  // tombstones weighs half: stale bytes must not skew LoadBalancer
  // decisions or replication cost accounting.
  size_t LiveSizeBytes() const;

  // RAM actually held by this view right now: full footprint for hot
  // views; metadata + (if not spilled to disk) the compressed payload
  // for cold views. Block-cache residency is accounted by the cache
  // itself, not per view.
  size_t ResidentBytes() const;
  // Compressed bytes parked on disk (0 for hot or RAM-compressed
  // views).
  size_t ColdBytes() const;

  // Full segment-file encoding (Encode + the overlay folded into the
  // delete bitmap) across tiers; cold views inflate the whole segment
  // for it. Replication and checkpointing use this, queries never do.
  [[nodiscard]] Result<std::string> EncodeFull() const;
};

// One epoch of a shard's searchable state: the ordered segment list
// (with per-segment tombstone overlays) published by the shard store.
// The vector itself is immutable once published (refresh/merge/DML
// build a NEW vector and swap the pointer), so readers holding a
// SegmentSnapshot see a frozen view — segment list AND deletes — for
// as long as they keep the pointer alive.
using ShardView = std::vector<SegmentView>;
using SegmentSnapshot = std::shared_ptr<const ShardView>;

// Accumulates documents and produces an immutable Segment at refresh
// time (merges use Segment::Merge instead).
class SegmentBuilder {
 public:
  explicit SegmentBuilder(const IndexSpec* spec) : spec_(spec) {}

  // Adds a document; returns its local id.
  DocId Add(const Document& doc);

  size_t num_docs() const { return docs_.size(); }

  // Builds the segment with the given id. The builder is consumed.
  std::unique_ptr<Segment> Build(uint64_t segment_id) &&;

 private:
  const IndexSpec* spec_;
  std::vector<Document> docs_;
};

}  // namespace esdb

#endif  // ESDB_STORAGE_SEGMENT_H_
