#ifndef ESDB_STORAGE_SORTED_KEY_INDEX_H_
#define ESDB_STORAGE_SORTED_KEY_INDEX_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "document/value.h"
#include "storage/posting.h"

namespace esdb {

// Order-preserving multi-column key encoding (FoundationDB-tuple
// style): each column's Value::EncodeSortable() bytes are escaped
// (0x00 -> 0x00 0xFF) and terminated with 0x00 0x01, so that the
// byte-lexicographic order of concatenations equals column-wise value
// order and no column boundary is ambiguous.
void AppendEncodedColumn(std::string* key, const Value& v);
std::string EncodeKey(const std::vector<Value>& columns);

// ESDB composite index (Section 5.1): the paper builds *concatenated
// columns with a one-dimensional Bkd-tree* on top (rejecting the
// multi-dimensional Bkd-tree for its dimensionality curse). This class
// is that structure: sorted (encoded key, doc id) entries queried by
// key range; the serialized form applies common-prefix compression on
// the sorted keys, which is the paper's answer to growing concatenated
// key sizes. A single-column instance doubles as the numeric/keyword
// range index.
class SortedKeyIndex {
 public:
  // `columns` is the ordered column list the key concatenates.
  explicit SortedKeyIndex(std::vector<std::string> columns);

  const std::vector<std::string>& columns() const { return columns_; }
  size_t num_entries() const { return entries_.size(); }

  // Build phase: Add in any order, then Seal() exactly once.
  void Add(std::string key, DocId id);
  void Seal();
  bool sealed() const { return sealed_; }

  // Merge step: the sealed index over the live docs of the sealed
  // `inputs` (all over `columns`), each input's entries renumbered
  // through its map. A monotone renumbering keeps each input's
  // entries sorted, so the runs merge without a re-sort.
  static SortedKeyIndex Merge(std::vector<std::string> columns,
                              const std::vector<const SortedKeyIndex*>& inputs,
                              const std::vector<DocIdMap>& maps);

  // Doc ids whose keys fall in [lo, hi) by byte order; result is a
  // sorted, duplicate-free posting list. Requires sealed().
  PostingList ScanRange(std::string_view lo, std::string_view hi) const;

  // Doc ids whose keys start with `prefix` (an EncodeKey of leading
  // columns). Requires sealed().
  PostingList ScanPrefix(std::string_view prefix) const;

  // Number of entries with key in [lo, hi). Requires sealed().
  size_t CountRange(std::string_view lo, std::string_view hi) const;

  // Visits the (key, id) entries in [lo, hi) in ascending key order
  // (descending when `reverse`), i.e. the index's sort order rather
  // than ScanRange's doc-id order — the LIMIT/ORDER-BY pushdown path.
  // Stops when `fn` returns false. Returns the number of entries
  // visited. Requires sealed().
  size_t VisitRange(std::string_view lo, std::string_view hi, bool reverse,
                    const std::function<bool(std::string_view key, DocId id)>&
                        fn) const;

  // Serialized form with common-prefix compression (per entry: shared
  // prefix length with the previous key, suffix, doc id).
  void EncodeTo(std::string* out) const;
  [[nodiscard]] static Status DecodeFrom(std::string_view data, size_t* pos,
                           SortedKeyIndex* out);

  size_t ApproximateBytes() const;

 private:
  struct Entry {
    std::string key;
    DocId id;
    // Seal's order: key, then doc id.
    bool operator<(const Entry& other) const {
      const int c = key.compare(other.key);
      return c != 0 ? c < 0 : id < other.id;
    }
  };

  std::vector<std::string> columns_;
  std::vector<Entry> entries_;
  bool sealed_ = false;
};

// Builds scan bounds for a composite-index access path: equality
// values on the leading columns, then an optional range on the next
// column. Produces [lo, hi) byte bounds for SortedKeyIndex::ScanRange.
struct KeyRange {
  std::string lo;
  std::string hi;
};

// Range over one trailing column after `equality_prefix` columns.
// Null bound values mean unbounded on that side. Both bounds may be
// inclusive or exclusive.
KeyRange MakeKeyRange(const std::vector<Value>& equality_prefix,
                      const Value* range_lo, bool lo_inclusive,
                      const Value* range_hi, bool hi_inclusive);

// Byte offset just past the first `num_columns` encoded columns of
// `key` (i.e. past their 0x00 0x01 terminators, skipping 0x00 0xFF
// escapes). Returns key.size() when the key has fewer columns. Used by
// the pushdown path to compare ORDER-BY column prefixes of composite
// keys without decoding values.
size_t ColumnPrefixEnd(std::string_view key, size_t num_columns);

}  // namespace esdb

#endif  // ESDB_STORAGE_SORTED_KEY_INDEX_H_
