#include "storage/inverted_index.h"

#include "storage/sorted_walk.h"

namespace esdb {

namespace {
const PostingList kEmptyPostings;
}  // namespace

void InvertedIndex::Add(std::string_view term, DocId id) {
  auto it = postings_.find(term);
  if (it == postings_.end()) {
    it = postings_.emplace(std::string(term), PostingList()).first;
  }
  // Multi-token fields can emit the same (term, doc) twice; postings
  // are duplicate-free.
  if (it->second.empty() || it->second.ids().back() != id) {
    it->second.Append(id);
  }
}

InvertedIndex InvertedIndex::Merge(
    const std::vector<const InvertedIndex*>& inputs,
    const std::vector<DocIdMap>& maps) {
  std::vector<const Dictionary*> dictionaries;
  for (const InvertedIndex* in : inputs) {
    dictionaries.push_back(in != nullptr ? &in->postings_ : nullptr);
  }
  InvertedIndex out;
  (void)ForEachKeyInStep(
      dictionaries, [&](const std::string& term,
                        const std::vector<const PostingList*>& lists) {
        PostingList merged;
        for (size_t i = 0; i < lists.size(); ++i) {
          if (lists[i] != nullptr) merged.AppendMapped(*lists[i], maps[i]);
        }
        if (!merged.empty()) {
          out.postings_.emplace_hint(out.postings_.end(), term,
                                     std::move(merged));
        }
        return Status::OK();
      });
  return out;
}

const PostingList& InvertedIndex::Lookup(std::string_view term) const {
  auto it = postings_.find(term);
  return it == postings_.end() ? kEmptyPostings : it->second;
}

std::vector<const PostingList*> InvertedIndex::LookupRange(
    std::string_view lo, std::string_view hi) const {
  std::vector<const PostingList*> out;
  for (auto it = postings_.lower_bound(lo);
       it != postings_.end() && std::string_view(it->first) < hi; ++it) {
    out.push_back(&it->second);
  }
  return out;
}

size_t InvertedIndex::ApproximateBytes() const {
  size_t bytes = 0;
  for (const auto& [term, list] : postings_) {
    bytes += term.size() + list.size() * sizeof(DocId) + 16;
  }
  return bytes;
}

}  // namespace esdb
