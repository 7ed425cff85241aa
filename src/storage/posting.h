#ifndef ESDB_STORAGE_POSTING_H_
#define ESDB_STORAGE_POSTING_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace esdb {

// Segment-local document id (0-based, dense).
using DocId = uint32_t;

// Merge-time renumbering of one input segment: the merged id of each
// input doc, or kDroppedDoc for a deleted one. Live docs keep their
// relative order, so a mapped posting list stays sorted.
inline constexpr DocId kDroppedDoc = ~DocId(0);
using DocIdMap = std::vector<DocId>;

// Sorted, duplicate-free list of segment-local doc ids — the unit of
// query evaluation (Lucene's postings). Encoded as delta varints in
// the segment format.
class PostingList {
 public:
  PostingList() = default;
  explicit PostingList(std::vector<DocId> ids);

  // Appends an id that must be strictly greater than the current last.
  void Append(DocId id);
  // Appends map[id] for every id of `src` that `map` does not drop;
  // the mapped ids must exceed the current last.
  void AppendMapped(const PostingList& src, const DocIdMap& map);

  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }
  const std::vector<DocId>& ids() const { return ids_; }
  bool Contains(DocId id) const;

  // Set algebra; inputs and outputs are sorted.
  static PostingList Intersect(const PostingList& a, const PostingList& b);
  static PostingList Union(const PostingList& a, const PostingList& b);
  // a \ b.
  static PostingList Difference(const PostingList& a, const PostingList& b);

  // Intersection of many lists, smallest-first (skips work when an
  // early intersection empties out).
  static PostingList IntersectAll(std::vector<const PostingList*> lists);
  static PostingList UnionAll(std::vector<const PostingList*> lists);

  // Delta-varint encoding.
  void EncodeTo(std::string* out) const;
  [[nodiscard]] static Status DecodeFrom(std::string_view data, size_t* pos,
                           PostingList* out);

  bool operator==(const PostingList& other) const {
    return ids_ == other.ids_;
  }

 private:
  std::vector<DocId> ids_;
};

}  // namespace esdb

#endif  // ESDB_STORAGE_POSTING_H_
