#ifndef ESDB_STORAGE_ATTRIBUTE_SIDECAR_H_
#define ESDB_STORAGE_ATTRIBUTE_SIDECAR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "storage/doc_values.h"
#include "storage/posting.h"

namespace esdb {

// Decoded-attributes sidecar: the "attributes" column ("k1:v1;k2:v2"
// merchant strings, Section 2.1) parsed ONCE when the segment
// freezes, instead of once per (doc, predicate) evaluation as the
// old executor did. Per doc it stores a small run of interned
// (key, value) id pairs; an `attributes.<key>` lookup is then one
// key-id resolution (hoistable per query) plus a scan of the doc's
// few pairs — no string parsing on any query path.
//
// Like everything else in a segment, the sidecar is immutable after
// construction and safe for concurrent readers with no
// synchronization. It is derived data: never serialized, rebuilt
// from the doc-values column on Segment::Decode.
class AttributeSidecar {
 public:
  // Parses the "attributes" doc-values column of a frozen segment.
  // Returns an empty sidecar (not null) when the column is absent.
  static std::unique_ptr<AttributeSidecar> Build(const DocValues& doc_values);

  // Merge step: the sidecar Build would produce over the live docs of
  // `inputs` concatenated in order, made by remapping each input's key
  // and value ids (interned in first-use order, as Build does) instead
  // of re-parsing any attribute string.
  static std::unique_ptr<AttributeSidecar> Merge(
      const std::vector<const AttributeSidecar*>& inputs,
      const std::vector<DocIdMap>& maps);

  // Interned id of `key`, or -1 when the key appears nowhere in the
  // segment (every doc's lookup is then null). Resolve once per
  // (query, segment), not per doc.
  int32_t KeyId(std::string_view key) const;

  // Value string of (doc, key id), or nullptr when the doc lacks the
  // sub-attribute. key_id must come from KeyId().
  const std::string* Get(DocId id, int32_t key_id) const {
    if (key_id < 0 || size_t(id) + 1 >= offsets_.size()) return nullptr;
    const uint32_t end = offsets_[id + 1];
    for (uint32_t i = offsets_[id]; i < end; ++i) {
      if (pairs_[i].key == uint32_t(key_id)) return &values_[pairs_[i].value];
    }
    return nullptr;
  }

  // Convenience for the row engine (one map lookup + pair scan).
  const std::string* GetByName(DocId id, std::string_view key) const {
    return Get(id, KeyId(key));
  }

  size_t num_keys() const { return keys_.size(); }
  size_t ApproximateBytes() const;

 private:
  AttributeSidecar() = default;

  // Build/Merge state: interns keys and values in first-use order. The
  // views must outlive the builder (they point into column strings or
  // input sidecars).
  class Interner;

  // Fills keys_by_name_ once keys_ is complete.
  void IndexKeys();

  struct Pair {
    uint32_t key;    // index into keys_
    uint32_t value;  // index into values_
  };

  std::vector<uint32_t> offsets_;  // num_docs + 1; doc i owns [i, i+1)
  std::vector<Pair> pairs_;
  std::vector<std::string> keys_;    // interned key strings
  std::vector<std::string> values_;  // interned value strings (deduped)
  std::vector<uint32_t> keys_by_name_;  // key ids in key-string order
};

}  // namespace esdb

#endif  // ESDB_STORAGE_ATTRIBUTE_SIDECAR_H_
