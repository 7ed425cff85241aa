#include "storage/posting.h"

#include <algorithm>
#include <cassert>

#include "common/varint.h"

namespace esdb {

PostingList::PostingList(std::vector<DocId> ids) : ids_(std::move(ids)) {
  assert(std::is_sorted(ids_.begin(), ids_.end()));
  assert(std::adjacent_find(ids_.begin(), ids_.end()) == ids_.end());
}

void PostingList::Append(DocId id) {
  assert(ids_.empty() || id > ids_.back());
  ids_.push_back(id);
}

void PostingList::AppendMapped(const PostingList& src, const DocIdMap& map) {
  for (const DocId id : src.ids_) {
    if (map[id] != kDroppedDoc) Append(map[id]);
  }
}

bool PostingList::Contains(DocId id) const {
  return std::binary_search(ids_.begin(), ids_.end(), id);
}

PostingList PostingList::Intersect(const PostingList& a,
                                   const PostingList& b) {
  PostingList out;
  out.ids_.reserve(std::min(a.size(), b.size()));
  std::set_intersection(a.ids_.begin(), a.ids_.end(), b.ids_.begin(),
                        b.ids_.end(), std::back_inserter(out.ids_));
  return out;
}

PostingList PostingList::Union(const PostingList& a, const PostingList& b) {
  PostingList out;
  out.ids_.reserve(a.size() + b.size());
  std::set_union(a.ids_.begin(), a.ids_.end(), b.ids_.begin(), b.ids_.end(),
                 std::back_inserter(out.ids_));
  return out;
}

PostingList PostingList::Difference(const PostingList& a,
                                    const PostingList& b) {
  PostingList out;
  out.ids_.reserve(a.size());
  std::set_difference(a.ids_.begin(), a.ids_.end(), b.ids_.begin(),
                      b.ids_.end(), std::back_inserter(out.ids_));
  return out;
}

PostingList PostingList::IntersectAll(std::vector<const PostingList*> lists) {
  if (lists.empty()) return PostingList();
  std::sort(lists.begin(), lists.end(),
            [](const PostingList* a, const PostingList* b) {
              return a->size() < b->size();
            });
  PostingList acc = *lists[0];
  for (size_t i = 1; i < lists.size() && !acc.empty(); ++i) {
    acc = Intersect(acc, *lists[i]);
  }
  return acc;
}

PostingList PostingList::UnionAll(std::vector<const PostingList*> lists) {
  // Gather-sort-unique beats pairwise accumulation (O(n log n) versus
  // O(n^2)) for the many-small-lists case produced by term ranges.
  size_t total = 0;
  for (const PostingList* list : lists) total += list->size();
  std::vector<DocId> ids;
  ids.reserve(total);
  for (const PostingList* list : lists) {
    ids.insert(ids.end(), list->ids_.begin(), list->ids_.end());
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  PostingList out;
  out.ids_ = std::move(ids);
  return out;
}

void PostingList::EncodeTo(std::string* out) const {
  PutVarint64(out, ids_.size());
  DocId prev = 0;
  for (DocId id : ids_) {
    PutVarint64(out, id - prev);  // first delta is the raw id
    prev = id;
  }
}

Status PostingList::DecodeFrom(std::string_view data, size_t* pos,
                               PostingList* out) {
  uint64_t n = 0;
  if (!GetVarint64(data, pos, &n)) {
    return Status::Corruption("posting: truncated count");
  }
  // Each id takes at least one byte; reject counts the data cannot
  // hold (robustness against corrupted or hostile input).
  if (n > data.size() - *pos) {
    return Status::Corruption("posting: implausible count");
  }
  out->ids_.clear();
  out->ids_.reserve(n);
  DocId prev = 0;
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t delta = 0;
    if (!GetVarint64(data, pos, &delta)) {
      return Status::Corruption("posting: truncated delta");
    }
    const DocId id = prev + DocId(delta);
    out->ids_.push_back(id);
    prev = id;
  }
  return Status::OK();
}

}  // namespace esdb
