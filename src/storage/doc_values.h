#ifndef ESDB_STORAGE_DOC_VALUES_H_
#define ESDB_STORAGE_DOC_VALUES_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "document/slot.h"
#include "document/value.h"
#include "storage/posting.h"

namespace esdb {

// Columnar per-field value store for one segment (Lucene's "doc
// values"). Supports the sequential-scan access path of the query
// optimizer (Section 5.1): filtering a candidate posting list by
// reading column values directly instead of an index.
//
// Storage is typed and contiguous: a 1-byte tag array (kNothing =
// null/missing, doubling as the null bitmap) plus an 8-byte payload
// array, with string payloads pointing into a per-column interned
// pool. That layout is what the vectorized batch executor
// (query/batch/) scans: predicate loops walk the raw tag/payload
// arrays instead of resolving a Value per doc, and a column whose
// docs all share one tag exposes its payloads as a plain int64/double
// array for branch-light comparison loops.
class DocValues {
 public:
  // Column for one field; missing docs hold kNothing.
  class Column {
   public:
    explicit Column(size_t num_docs)
        : tags_(num_docs, uint8_t(SlotTag::kNothing)),
          payloads_(num_docs, 0) {}

    // Build-time only (SegmentBuilder::Build / Segment::Decode /
    // Segment::Merge); a column is frozen once its segment is
    // published. SetSlot copies a string slot into this column's pool.
    void Set(DocId id, Value v);
    void SetSlot(DocId id, TypedSlot slot);

    // Materializes the value (string slots copy out of the pool).
    Value Get(DocId id) const {
      return SlotToValue(Slot(id));
    }

    // Zero-copy tagged view; the hot-path accessor.
    TypedSlot Slot(DocId id) const {
      return TypedSlot{SlotTag(tags_[id]), payloads_[id]};
    }

    size_t size() const { return tags_.size(); }

    // --- Raw batch access ------------------------------------------
    const uint8_t* tags() const { return tags_.data(); }
    const uint64_t* payloads() const { return payloads_.data(); }
    // Valid only when uniform_tag() is kInt / kDouble respectively
    // (payloads are bit-cast, so the reinterpretation is exact).
    const int64_t* int64_data() const {
      return reinterpret_cast<const int64_t*>(payloads_.data());
    }
    const double* double_data() const {
      return reinterpret_cast<const double*>(payloads_.data());
    }
    // The single tag shared by EVERY doc of the column (no nulls, no
    // missing, no overwrites during build), or kNothing when mixed —
    // the gate for the batch engine's typed fast paths.
    SlotTag uniform_tag() const {
      return (!mixed_ && set_count_ == tags_.size() && !tags_.empty())
                 ? SlotTag(first_tag_)
                 : SlotTag::kNothing;
    }

    size_t ApproximateBytes() const;

   private:
    void Store(DocId id, uint8_t tag, uint64_t payload);

    std::vector<uint8_t> tags_;
    std::vector<uint64_t> payloads_;
    // Interned string storage; deque for stable addresses (string
    // slots hold pointers into it).
    std::deque<std::string> strings_;
    // Uniformity tracking (see uniform_tag()).
    size_t set_count_ = 0;
    uint8_t first_tag_ = uint8_t(SlotTag::kNothing);
    bool mixed_ = false;
  };

  explicit DocValues(size_t num_docs) : num_docs_(num_docs) {}

  // Returns the column for `field`, creating it if absent.
  Column* GetOrCreate(const std::string& field);
  // Returns nullptr when the field has no column (all-null).
  const Column* Find(const std::string& field) const;

  size_t num_docs() const { return num_docs_; }
  const std::map<std::string, Column>& columns() const { return columns_; }

  // Approximate heap footprint, counted into segment size.
  size_t ApproximateBytes() const;

 private:
  size_t num_docs_;
  std::map<std::string, Column> columns_;
};

}  // namespace esdb

#endif  // ESDB_STORAGE_DOC_VALUES_H_
