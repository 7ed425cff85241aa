#include "storage/attribute_sidecar.h"

#include <algorithm>
#include <unordered_map>

#include "document/document.h"

namespace esdb {

class AttributeSidecar::Interner {
 public:
  explicit Interner(AttributeSidecar* side) : side_(side) {}

  uint32_t InternKey(std::string_view key) {
    auto [it, inserted] =
        keys_.try_emplace(key, uint32_t(side_->keys_.size()));
    if (inserted) side_->keys_.emplace_back(key);
    return it->second;
  }
  uint32_t InternValue(std::string_view value) {
    auto [it, inserted] =
        values_.try_emplace(value, uint32_t(side_->values_.size()));
    if (inserted) side_->values_.emplace_back(value);
    return it->second;
  }

 private:
  AttributeSidecar* side_;
  std::unordered_map<std::string_view, uint32_t> keys_;
  std::unordered_map<std::string_view, uint32_t> values_;
};

std::unique_ptr<AttributeSidecar> AttributeSidecar::Build(
    const DocValues& doc_values) {
  auto side = std::unique_ptr<AttributeSidecar>(new AttributeSidecar());
  const size_t num_docs = doc_values.num_docs();
  side->offsets_.reserve(num_docs + 1);
  side->offsets_.push_back(0);

  const DocValues::Column* col = doc_values.Find(kFieldAttributes);
  Interner intern(side.get());
  for (size_t id = 0; id < num_docs; ++id) {
    if (col != nullptr) {
      const TypedSlot slot = col->Slot(DocId(id));
      if (slot.tag == SlotTag::kString) {
        // Views into the column's own strings, which outlive the build.
        for (const auto& [key, value] : ParseAttributeViews(slot.as_string())) {
          const uint32_t key_id = intern.InternKey(key);
          side->pairs_.push_back(Pair{key_id, intern.InternValue(value)});
        }
      }
    }
    side->offsets_.push_back(uint32_t(side->pairs_.size()));
  }
  side->IndexKeys();
  return side;
}

std::unique_ptr<AttributeSidecar> AttributeSidecar::Merge(
    const std::vector<const AttributeSidecar*>& inputs,
    const std::vector<DocIdMap>& maps) {
  constexpr uint32_t kUnmapped = ~uint32_t(0);
  auto side = std::unique_ptr<AttributeSidecar>(new AttributeSidecar());
  side->offsets_.push_back(0);
  Interner intern(side.get());
  for (size_t i = 0; i < inputs.size(); ++i) {
    const AttributeSidecar& in = *inputs[i];
    std::vector<uint32_t> key_map(in.keys_.size(), kUnmapped);
    std::vector<uint32_t> value_map(in.values_.size(), kUnmapped);
    for (DocId id = 0; id < maps[i].size(); ++id) {
      if (maps[i][id] == kDroppedDoc) continue;
      for (uint32_t p = in.offsets_[id]; p < in.offsets_[id + 1]; ++p) {
        const Pair pair = in.pairs_[p];
        uint32_t& key = key_map[pair.key];
        if (key == kUnmapped) key = intern.InternKey(in.keys_[pair.key]);
        uint32_t& value = value_map[pair.value];
        if (value == kUnmapped) value = intern.InternValue(in.values_[pair.value]);
        side->pairs_.push_back(Pair{key, value});
      }
      side->offsets_.push_back(uint32_t(side->pairs_.size()));
    }
  }
  side->IndexKeys();
  return side;
}

void AttributeSidecar::IndexKeys() {
  keys_by_name_.resize(keys_.size());
  for (uint32_t id = 0; id < keys_.size(); ++id) keys_by_name_[id] = id;
  std::sort(keys_by_name_.begin(), keys_by_name_.end(),
            [this](uint32_t a, uint32_t b) { return keys_[a] < keys_[b]; });
}

int32_t AttributeSidecar::KeyId(std::string_view key) const {
  auto it = std::lower_bound(
      keys_by_name_.begin(), keys_by_name_.end(), key,
      [this](uint32_t id, std::string_view k) { return keys_[id] < k; });
  return it != keys_by_name_.end() && keys_[*it] == key ? int32_t(*it) : -1;
}

size_t AttributeSidecar::ApproximateBytes() const {
  size_t bytes = offsets_.size() * sizeof(uint32_t) +
                 pairs_.size() * sizeof(Pair);
  for (const std::string& k : keys_) bytes += k.size();
  for (const std::string& v : values_) bytes += v.size();
  return bytes;
}

}  // namespace esdb
