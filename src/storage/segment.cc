#include "storage/segment.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <utility>

#include "common/varint.h"
#include "storage/analyzer.h"
#include "storage/cold_segment.h"
#include "storage/sorted_walk.h"

namespace esdb {

namespace {
const PostingList kEmptyPostings;
}  // namespace

// --- Segment read paths -----------------------------------------------

const PostingList& Segment::Postings(std::string_view field,
                                     std::string_view term) const {
  auto it = inverted_.find(std::string(field));
  if (it == inverted_.end()) return kEmptyPostings;
  return it->second.Lookup(term);
}

std::vector<const PostingList*> Segment::PostingsRange(
    std::string_view field, std::string_view lo, std::string_view hi) const {
  auto it = inverted_.find(std::string(field));
  if (it == inverted_.end()) return {};
  return it->second.LookupRange(lo, hi);
}

bool Segment::HasInvertedIndex(std::string_view field) const {
  return inverted_.find(std::string(field)) != inverted_.end();
}

const SortedKeyIndex* Segment::CompositeIndex(std::string_view name) const {
  auto it = composites_.find(std::string(name));
  return it == composites_.end() ? nullptr : &it->second;
}

Result<Document> Segment::GetDocument(DocId id) const {
  if (id >= num_docs_) {
    return Status::InvalidArgument("segment: doc id out of range");
  }
  if (!has_stored_docs()) {
    // Index-only segment (pinned cold index part): document bytes live
    // in the cold file's row blocks — callers must go through
    // SegmentView::GetDocument / ColdSegment::ReadDocument.
    return Status::FailedPrecondition("segment: stored docs not resident");
  }
  return Document::Deserialize(stored_[id]);
}

int64_t Segment::FindByRecordId(int64_t record_id) const {
  auto it = record_ids_.find(record_id);
  return it == record_ids_.end() ? -1 : int64_t(it->second);
}

void Segment::RecomputeSize() {
  size_t bytes = 0;
  for (const std::string& s : stored_) bytes += s.size();
  for (const auto& [name, index] : inverted_) {
    bytes += name.size() + index.ApproximateBytes();
  }
  for (const auto& [name, index] : composites_) {
    bytes += name.size() + index.ApproximateBytes();
  }
  bytes += doc_values_->ApproximateBytes();
  if (attr_sidecar_ != nullptr) bytes += attr_sidecar_->ApproximateBytes();
  size_bytes_ = bytes;
}

// --- Tombstones -----------------------------------------------------------

std::shared_ptr<const Tombstones> Tombstones::WithDeleted(
    const Tombstones* base, uint32_t num_docs, DocId id) {
  assert(id < num_docs);
  auto next = std::shared_ptr<Tombstones>(new Tombstones());
  if (base != nullptr) {
    next->bits_ = base->bits_;
    next->count_ = base->count_;
  }
  if (next->bits_.size() < num_docs) next->bits_.resize(num_docs, false);
  if (!next->bits_[id]) {
    next->bits_[id] = true;
    ++next->count_;
  }
  return next;
}

std::shared_ptr<const Tombstones> Tombstones::FromBits(
    std::vector<bool> bits) {
  size_t count = 0;
  for (const bool bit : bits) count += bit ? 1 : 0;
  if (count == 0) return nullptr;
  auto out = std::shared_ptr<Tombstones>(new Tombstones());
  out->bits_ = std::move(bits);
  out->count_ = count;
  return out;
}

// --- SegmentView ----------------------------------------------------------

uint64_t SegmentView::id() const {
  return cold != nullptr ? cold->id() : segment->id();
}

size_t SegmentView::num_docs() const {
  return cold != nullptr ? cold->num_docs() : segment->num_docs();
}

Result<SegmentView> SegmentView::Pinned() const {
  if (segment != nullptr) return *this;  // hot, or already pinned
  ESDB_ASSIGN_OR_RETURN(std::shared_ptr<const Segment> pinned,
                        cold->PinIndex());
  SegmentView out = *this;
  out.segment = std::move(pinned);
  return out;
}

Result<Document> SegmentView::GetDocument(DocId id) const {
  if (cold != nullptr) return cold->ReadDocument(id);
  return segment->GetDocument(id);
}

PostingList SegmentView::LiveDocs() const {
  PostingList out;
  const uint32_t n = uint32_t(num_docs());
  for (DocId id = 0; id < n; ++id) {
    if (!IsDeleted(id)) out.Append(id);
  }
  return out;
}

size_t SegmentView::SizeBytes() const {
  const size_t overlay = tombstones != nullptr ? tombstones->SizeBytes() : 0;
  if (cold != nullptr) return cold->total_raw_bytes() + overlay;
  return segment->SizeBytes() + overlay;
}

size_t SegmentView::LiveSizeBytes() const {
  const size_t total = num_docs();
  if (total == 0) return 0;
  const size_t bytes = SizeBytes();
  return bytes / total * num_live_docs() +
         bytes % total * num_live_docs() / total;
}

size_t SegmentView::ResidentBytes() const {
  const size_t overlay = tombstones != nullptr ? tombstones->SizeBytes() : 0;
  if (cold != nullptr) return cold->ResidentBytes() + overlay;
  return segment->SizeBytes() + overlay;
}

size_t SegmentView::ColdBytes() const {
  return cold != nullptr ? cold->DiskBytes() : 0;
}

Result<std::string> SegmentView::EncodeFull() const {
  if (cold == nullptr) return segment->Encode(tombstones.get());
  ESDB_ASSIGN_OR_RETURN(std::unique_ptr<Segment> full, cold->LoadFull());
  return full->Encode(tombstones.get());
}

// --- Segment file format ------------------------------------------------
//
//   varint  id
//   varint  num_docs
//   num_docs x length-prefixed stored document
//   varint  #inverted-fields
//     per field: name, varint #terms, per term: term, postings
//   varint  #composite-indexes, per index: SortedKeyIndex encoding
//   varint  #doc-value-columns, per column: name, num_docs x Value
//   varint  #record-id-entries, per entry: varint zigzag(record), varint doc
//   deleted bitmap: num_docs bits, padded to bytes (the caller-
//   supplied tombstone overlay; zeros when none)
//   column-stats trailer (ColumnStats encoding), mandatory: decode
//   rejects a file that ends anywhere before the trailer's last byte
//   or runs past it

void Segment::EncodeIndexSectionsTo(std::string* out) const {
  PutVarint64(out, inverted_.size());
  for (const auto& [field, index] : inverted_) {
    PutLengthPrefixed(out, field);
    PutVarint64(out, index.num_terms());
    for (const auto& [term, postings] : index.terms()) {
      PutLengthPrefixed(out, term);
      postings.EncodeTo(out);
    }
  }

  PutVarint64(out, composites_.size());
  for (const auto& [name, index] : composites_) {
    (void)name;  // name derives from the index's column list
    index.EncodeTo(out);
  }

  PutVarint64(out, doc_values_->columns().size());
  for (const auto& [name, col] : doc_values_->columns()) {
    PutLengthPrefixed(out, name);
    for (DocId i = 0; i < num_docs_; ++i) col.Get(i).EncodeTo(out);
  }

  // record_ids_ is a hash map; emit entries in sorted record order so
  // the encoding is deterministic — encode(decode(x)) must be
  // byte-identical to x for checkpoint dedup and the cold tier's
  // re-inflation tests.
  std::vector<std::pair<int64_t, DocId>> records(record_ids_.begin(),
                                                 record_ids_.end());
  std::sort(records.begin(), records.end());
  PutVarint64(out, records.size());
  for (const auto& [record, doc] : records) {
    PutVarint64(out, (uint64_t(record) << 1) ^ uint64_t(record >> 63));
    PutVarint64(out, doc);
  }
}

std::string Segment::Encode(const Tombstones* tombstones) const {
  std::string out;
  PutVarint64(&out, id_);
  PutVarint64(&out, num_docs_);
  for (const std::string& s : stored_) PutLengthPrefixed(&out, s);

  EncodeIndexSectionsTo(&out);

  for (uint32_t i = 0; i < num_docs_; i += 8) {
    uint8_t byte = 0;
    for (uint32_t b = 0; b < 8 && i + b < num_docs_; ++b) {
      if (tombstones != nullptr && tombstones->Test(i + b)) {
        byte |= uint8_t(1u << b);
      }
    }
    out.push_back(char(byte));
  }
  assert(column_stats_ != nullptr);
  column_stats_->EncodeTo(&out);
  return out;
}

Result<std::unique_ptr<Segment>> Segment::Decode(
    std::string_view data, std::shared_ptr<const Tombstones>* tombstones) {
  auto seg = std::unique_ptr<Segment>(new Segment());
  size_t pos = 0;
  uint64_t id = 0, num_docs = 0;
  if (!GetVarint64(data, &pos, &id) || !GetVarint64(data, &pos, &num_docs)) {
    return Status::Corruption("segment: truncated header");
  }
  // A stored doc takes at least one byte; likewise the delete bitmap
  // needs num_docs/8 bytes. Bound counts before any allocation
  // (robustness against corrupted or hostile segment files).
  if (num_docs > data.size() - pos) {
    return Status::Corruption("segment: implausible doc count");
  }
  seg->id_ = id;
  seg->num_docs_ = uint32_t(num_docs);

  seg->stored_.reserve(num_docs);
  for (uint64_t i = 0; i < num_docs; ++i) {
    std::string_view doc;
    if (!GetLengthPrefixed(data, &pos, &doc)) {
      return Status::Corruption("segment: truncated stored doc");
    }
    seg->stored_.emplace_back(doc);
  }

  ESDB_RETURN_IF_ERROR(seg->DecodeIndexSections(data, &pos));

  std::vector<bool> deleted(num_docs, false);
  for (uint64_t i = 0; i < num_docs; i += 8) {
    if (pos >= data.size()) {
      return Status::Corruption("segment: truncated delete bitmap");
    }
    const uint8_t byte = uint8_t(data[pos++]);
    for (uint64_t b = 0; b < 8 && i + b < num_docs; ++b) {
      if (byte & (1u << b)) deleted[i + b] = true;
    }
  }
  auto stats = std::make_unique<ColumnStats>();
  ESDB_RETURN_IF_ERROR(ColumnStats::DecodeFrom(data, &pos, stats.get()));
  if (pos != data.size()) return Status::Corruption("segment: trailing bytes");
  seg->column_stats_ = std::move(stats);
  if (tombstones != nullptr) {
    *tombstones = Tombstones::FromBits(std::move(deleted));
  }
  seg->attr_sidecar_ = AttributeSidecar::Build(*seg->doc_values_);
  seg->RecomputeSize();
  return seg;
}

Status Segment::DecodeIndexSections(std::string_view data, size_t* posp) {
  size_t& pos = *posp;
  const uint64_t num_docs = num_docs_;

  uint64_t nfields = 0;
  if (!GetVarint64(data, &pos, &nfields)) {
    return Status::Corruption("segment: truncated inverted count");
  }
  for (uint64_t f = 0; f < nfields; ++f) {
    std::string_view field;
    uint64_t nterms = 0;
    if (!GetLengthPrefixed(data, &pos, &field) ||
        !GetVarint64(data, &pos, &nterms)) {
      return Status::Corruption("segment: truncated inverted field");
    }
    InvertedIndex& index = inverted_[std::string(field)];
    for (uint64_t t = 0; t < nterms; ++t) {
      std::string_view term;
      if (!GetLengthPrefixed(data, &pos, &term)) {
        return Status::Corruption("segment: truncated term");
      }
      PostingList postings;
      ESDB_RETURN_IF_ERROR(PostingList::DecodeFrom(data, &pos, &postings));
      for (DocId docid : postings.ids()) index.Add(term, docid);
    }
  }

  uint64_t ncomposites = 0;
  if (!GetVarint64(data, &pos, &ncomposites)) {
    return Status::Corruption("segment: truncated composite count");
  }
  for (uint64_t c = 0; c < ncomposites; ++c) {
    SortedKeyIndex index({});
    ESDB_RETURN_IF_ERROR(SortedKeyIndex::DecodeFrom(data, &pos, &index));
    std::string name = IndexSpec::CompositeName(index.columns());
    composites_.emplace(std::move(name), std::move(index));
  }

  uint64_t ncols = 0;
  if (!GetVarint64(data, &pos, &ncols)) {
    return Status::Corruption("segment: truncated doc-values count");
  }
  doc_values_ = std::make_unique<DocValues>(num_docs);
  for (uint64_t c = 0; c < ncols; ++c) {
    std::string_view name;
    if (!GetLengthPrefixed(data, &pos, &name)) {
      return Status::Corruption("segment: truncated column name");
    }
    DocValues::Column* col = doc_values_->GetOrCreate(std::string(name));
    for (uint64_t i = 0; i < num_docs; ++i) {
      Value v;
      if (!Value::DecodeFrom(data, &pos, &v)) {
        return Status::Corruption("segment: truncated doc value");
      }
      col->Set(DocId(i), std::move(v));
    }
  }

  uint64_t nrecords = 0;
  if (!GetVarint64(data, &pos, &nrecords)) {
    return Status::Corruption("segment: truncated record-id count");
  }
  for (uint64_t i = 0; i < nrecords; ++i) {
    uint64_t zz = 0, doc = 0;
    if (!GetVarint64(data, &pos, &zz) || !GetVarint64(data, &pos, &doc)) {
      return Status::Corruption("segment: truncated record-id entry");
    }
    record_ids_[int64_t((zz >> 1) ^ (~(zz & 1) + 1))] = DocId(doc);
  }
  return Status::OK();
}

// Index-part format: the segment file minus stored docs and delete
// bitmap —
//   varint id, varint num_docs, then the shared index sections, then
//   the same mandatory column-stats trailer as the full file (so a
//   pinned cold index part serves plan-time statistics without a
//   column rescan).

std::string Segment::EncodeIndexPart() const {
  std::string out;
  PutVarint64(&out, id_);
  PutVarint64(&out, num_docs_);
  EncodeIndexSectionsTo(&out);
  assert(column_stats_ != nullptr);
  column_stats_->EncodeTo(&out);
  return out;
}

Result<std::unique_ptr<Segment>> Segment::DecodeIndexPart(
    std::string_view data) {
  auto seg = std::unique_ptr<Segment>(new Segment());
  size_t pos = 0;
  uint64_t id = 0, num_docs = 0;
  if (!GetVarint64(data, &pos, &id) || !GetVarint64(data, &pos, &num_docs)) {
    return Status::Corruption("segment: truncated index-part header");
  }
  seg->id_ = id;
  seg->num_docs_ = uint32_t(num_docs);
  ESDB_RETURN_IF_ERROR(seg->DecodeIndexSections(data, &pos));
  auto stats = std::make_unique<ColumnStats>();
  ESDB_RETURN_IF_ERROR(ColumnStats::DecodeFrom(data, &pos, stats.get()));
  if (pos != data.size()) {
    return Status::Corruption("segment: trailing index-part bytes");
  }
  seg->column_stats_ = std::move(stats);
  seg->attr_sidecar_ = AttributeSidecar::Build(*seg->doc_values_);
  seg->RecomputeSize();
  return seg;
}

// --- Structural merge -----------------------------------------------------

namespace {

// Whether a live doc of a merge carries `field` as an explicit null,
// the one field state a doc-values column cannot tell from a missing
// field. A keyword field indexes the null under the null term; a text
// field leaves no index trace, so the merged stored docs are read.
Result<bool> HasLiveExplicitNull(const std::string& field,
                                 const std::vector<SegmentView>& inputs,
                                 const std::vector<DocIdMap>& maps,
                                 const IndexSpec& spec,
                                 const std::vector<std::string>& stored) {
  if (!spec.IsTextField(field)) {
    const std::string null_term = Value().EncodeSortable();
    for (size_t i = 0; i < inputs.size(); ++i) {
      for (const DocId id : inputs[i]->Postings(field, null_term).ids()) {
        if (maps[i][id] != kDroppedDoc) return true;
      }
    }
    return false;
  }
  for (const std::string& doc : stored) {
    ESDB_ASSIGN_OR_RETURN(const bool has, Document::SerializedHas(doc, field));
    if (has) return true;
  }
  return false;
}

}  // namespace

Result<std::unique_ptr<Segment>> Segment::Merge(
    const std::vector<SegmentView>& inputs, const IndexSpec& spec,
    uint64_t segment_id) {
  // Pin every input (a cold one decodes its index part through the
  // block cache) and number the live docs in input order.
  std::vector<SegmentView> pinned;
  std::vector<DocIdMap> maps;
  pinned.reserve(inputs.size());
  maps.reserve(inputs.size());
  DocId next = 0;
  for (const SegmentView& view : inputs) {
    ESDB_ASSIGN_OR_RETURN(SegmentView in, view.Pinned());
    DocIdMap map(in.num_docs(), kDroppedDoc);
    for (DocId id = 0; id < map.size(); ++id) {
      if (!in.IsDeleted(id)) map[id] = next++;
    }
    pinned.push_back(std::move(in));
    maps.push_back(std::move(map));
  }

  auto seg = std::unique_ptr<Segment>(new Segment());
  seg->id_ = segment_id;
  seg->num_docs_ = next;

  // Stored documents and record ids, copied as they are.
  seg->stored_.reserve(next);
  seg->record_ids_.reserve(next);
  for (size_t i = 0; i < pinned.size(); ++i) {
    const SegmentView& in = pinned[i];
    const DocIdMap& map = maps[i];
    if (in.is_cold()) {
      ESDB_RETURN_IF_ERROR(in.cold->AppendStoredDocs(map, &seg->stored_));
    } else {
      for (DocId id = 0; id < map.size(); ++id) {
        if (map[id] != kDroppedDoc) seg->stored_.push_back(in->stored_[id]);
      }
    }
    for (const auto& [record, id] : in->record_ids_) {
      if (map[id] != kDroppedDoc) seg->record_ids_[record] = map[id];
    }
  }

  // Doc values: each live slot copied once. A column exists when some
  // live doc carries the field, as SegmentBuilder would create it.
  seg->doc_values_ = std::make_unique<DocValues>(next);
  std::vector<const std::map<std::string, DocValues::Column>*> columns;
  for (const SegmentView& in : pinned) {
    columns.push_back(&in->doc_values().columns());
  }
  ESDB_RETURN_IF_ERROR(ForEachKeyInStep(
      columns, [&](const std::string& name,
                   const std::vector<const DocValues::Column*>& cols) -> Status {
        DocValues::Column* out = nullptr;
        bool in_undeleted_input = false;
        for (size_t i = 0; i < pinned.size(); ++i) {
          if (cols[i] == nullptr) continue;
          in_undeleted_input |= pinned[i].num_deleted() == 0;
          for (DocId id = 0; id < maps[i].size(); ++id) {
            const TypedSlot slot = cols[i]->Slot(id);
            if (maps[i][id] == kDroppedDoc || slot.is_nothing()) continue;
            if (out == nullptr) out = seg->doc_values_->GetOrCreate(name);
            out->SetSlot(maps[i][id], slot);
          }
        }
        if (out != nullptr) return Status::OK();
        // Only nulls survive: the field exists if a live doc set it null.
        bool present = in_undeleted_input;
        if (!present) {
          ESDB_ASSIGN_OR_RETURN(present, HasLiveExplicitNull(name, pinned, maps,
                                                             spec, seg->stored_));
        }
        if (present) seg->doc_values_->GetOrCreate(name);
        return Status::OK();
      }));

  // Inverted indexes: term dictionaries merged in step. A text field
  // keeps an (empty) index while a live doc holds a string in it.
  std::vector<const std::map<std::string, InvertedIndex>*> inverted;
  for (const SegmentView& in : pinned) inverted.push_back(&in->inverted_);
  ESDB_RETURN_IF_ERROR(ForEachKeyInStep(
      inverted, [&](const std::string& field,
                    const std::vector<const InvertedIndex*>& indexes) -> Status {
        InvertedIndex merged = InvertedIndex::Merge(indexes, maps);
        bool keep = merged.num_terms() > 0;
        if (!keep && spec.IsTextField(field)) {
          const DocValues::Column* col = seg->doc_values_->Find(field);
          for (DocId id = 0; col != nullptr && id < next && !keep; ++id) {
            keep = col->Slot(id).tag == SlotTag::kString;
          }
        }
        if (keep) {
          seg->inverted_.emplace_hint(seg->inverted_.end(), field,
                                      std::move(merged));
        }
        return Status::OK();
      }));

  // Composite indexes, named and ordered by the spec like the builder.
  std::vector<const SortedKeyIndex*> composites(pinned.size());
  for (const std::vector<std::string>& columns : spec.composite_indexes) {
    std::string name = IndexSpec::CompositeName(columns);
    if (seg->composites_.count(name) > 0) continue;
    for (size_t i = 0; i < pinned.size(); ++i) {
      composites[i] = pinned[i]->CompositeIndex(name);
      if (composites[i] == nullptr) {
        return Status::FailedPrecondition(
            "segment merge: input lacks composite index " + name);
      }
    }
    seg->composites_.emplace(
        std::move(name), SortedKeyIndex::Merge(columns, composites, maps));
  }

  std::vector<const AttributeSidecar*> sidecars;
  sidecars.reserve(pinned.size());
  for (const SegmentView& in : pinned) {
    sidecars.push_back(in->attribute_sidecar());
  }
  seg->attr_sidecar_ = AttributeSidecar::Merge(sidecars, maps);
  seg->column_stats_ =
      std::make_unique<ColumnStats>(ColumnStats::Build(*seg->doc_values_));
  seg->RecomputeSize();
  return seg;
}

// --- SegmentBuilder -------------------------------------------------------

DocId SegmentBuilder::Add(const Document& doc) {
  docs_.push_back(doc);
  return DocId(docs_.size() - 1);
}

std::unique_ptr<Segment> SegmentBuilder::Build(uint64_t segment_id) && {
  auto seg = std::unique_ptr<Segment>(new Segment());
  seg->id_ = segment_id;
  seg->num_docs_ = uint32_t(docs_.size());
  seg->doc_values_ = std::make_unique<DocValues>(docs_.size());
  seg->stored_.reserve(docs_.size());

  for (DocId id = 0; id < docs_.size(); ++id) {
    const Document& doc = docs_[id];
    seg->stored_.push_back(doc.Serialize());
    if (doc.Has(kFieldRecordId)) {
      seg->record_ids_[doc.record_id()] = id;
    }

    for (const auto& [field, value] : doc.fields()) {
      // Doc values for every field (sequential scan + materialization).
      seg->doc_values_->GetOrCreate(field)->Set(id, value);

      if (spec_->IsTextField(field)) {
        if (value.is_string()) {
          InvertedIndex& index = seg->inverted_[field];
          for (const std::string& token : Tokenize(value.as_string())) {
            index.Add(token, id);
          }
        }
        continue;
      }
      if (field == kFieldAttributes && value.is_string()) {
        // Frequency-based indexing: only the configured (hot)
        // sub-attributes get inverted-index terms.
        if (!spec_->IndexesSubAttributes()) continue;
        for (const auto& [key, sub_value] :
             ParseAttributeViews(value.as_string())) {
          if (!spec_->IsIndexedSubAttribute(key)) continue;
          seg->inverted_[SubAttributeField(key)].Add(
              Value(std::string(sub_value)).EncodeSortable(), id);
        }
        continue;
      }
      // Default: exact-term (keyword) index on the sortable encoding.
      // Scan-list fields are indexed too — the scan list is an
      // optimizer access-path choice, not an indexing choice.
      seg->inverted_[field].Add(value.EncodeSortable(), id);
    }
  }

  // Composite indexes: one entry per document, columns null-padded so
  // equality-prefix scans see every doc.
  for (const std::vector<std::string>& columns : spec_->composite_indexes) {
    SortedKeyIndex index(columns);
    for (DocId id = 0; id < docs_.size(); ++id) {
      std::string key;
      for (const std::string& col : columns) {
        AppendEncodedColumn(&key, docs_[id].Get(col));
      }
      index.Add(std::move(key), id);
    }
    index.Seal();
    seg->composites_.emplace(IndexSpec::CompositeName(columns),
                             std::move(index));
  }

  seg->attr_sidecar_ = AttributeSidecar::Build(*seg->doc_values_);
  seg->column_stats_ =
      std::make_unique<ColumnStats>(ColumnStats::Build(*seg->doc_values_));
  seg->RecomputeSize();
  return seg;
}

}  // namespace esdb
