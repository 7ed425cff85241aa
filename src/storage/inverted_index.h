#ifndef ESDB_STORAGE_INVERTED_INDEX_H_
#define ESDB_STORAGE_INVERTED_INDEX_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "storage/posting.h"

namespace esdb {

// Term dictionary + postings for one field of one segment. Terms are
// either analyzer tokens (full-text fields) or exact value encodings
// (keyword fields).
class InvertedIndex {
 public:
  // Adds `id` to the postings of `term`. Ids must arrive in
  // non-decreasing order per term (build-time contract).
  void Add(std::string_view term, DocId id);

  // Merge step: the index over the live docs of `inputs` concatenated
  // in order, each input's postings renumbered through its map (a
  // null input contributes nothing). Walks the sorted term
  // dictionaries in step, so each merged term is inserted once, at
  // the end; a term left with no live doc is dropped.
  static InvertedIndex Merge(const std::vector<const InvertedIndex*>& inputs,
                             const std::vector<DocIdMap>& maps);

  // Returns postings for `term`, or an empty shared list when absent.
  const PostingList& Lookup(std::string_view term) const;

  // Postings of all terms in [lo, hi) by byte order — used for range
  // predicates over keyword fields (term encodings are order-
  // preserving, so byte order equals value order).
  std::vector<const PostingList*> LookupRange(std::string_view lo,
                                              std::string_view hi) const;

  using Dictionary = std::map<std::string, PostingList, std::less<>>;

  size_t num_terms() const { return postings_.size(); }
  const Dictionary& terms() const { return postings_; }

  size_t ApproximateBytes() const;

 private:
  Dictionary postings_;
};

}  // namespace esdb

#endif  // ESDB_STORAGE_INVERTED_INDEX_H_
