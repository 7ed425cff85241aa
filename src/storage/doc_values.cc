#include "storage/doc_values.h"

#include <cstring>

namespace esdb {

void DocValues::Column::Set(DocId id, Value v) {
  uint8_t tag = uint8_t(SlotTag::kNothing);
  uint64_t payload = 0;
  switch (v.type()) {
    case Value::Type::kNull:
      break;
    case Value::Type::kBool:
      tag = uint8_t(SlotTag::kBool);
      payload = v.as_bool() ? 1 : 0;
      break;
    case Value::Type::kInt:
      tag = uint8_t(SlotTag::kInt);
      payload = uint64_t(v.as_int());
      break;
    case Value::Type::kDouble: {
      tag = uint8_t(SlotTag::kDouble);
      const double d = v.as_double();
      std::memcpy(&payload, &d, sizeof(payload));
      break;
    }
    case Value::Type::kString: {
      tag = uint8_t(SlotTag::kString);
      strings_.push_back(v.as_string());
      payload = uint64_t(uintptr_t(&strings_.back()));
      break;
    }
  }
  Store(id, tag, payload);
}

void DocValues::Column::SetSlot(DocId id, TypedSlot slot) {
  if (slot.tag == SlotTag::kString) {
    strings_.push_back(slot.as_string());
    slot.payload = uint64_t(uintptr_t(&strings_.back()));
  }
  Store(id, uint8_t(slot.tag), slot.payload);
}

void DocValues::Column::Store(DocId id, uint8_t tag, uint64_t payload) {
  // Overwrites and explicit nulls disable the uniform fast path
  // conservatively (uniform = every doc set exactly once, same tag).
  if (tags_[id] != uint8_t(SlotTag::kNothing)) mixed_ = true;
  if (tag != uint8_t(SlotTag::kNothing)) {
    if (set_count_ == 0) {
      first_tag_ = tag;
    } else if (tag != first_tag_) {
      mixed_ = true;
    }
    ++set_count_;
  }
  tags_[id] = tag;
  payloads_[id] = payload;
}

size_t DocValues::Column::ApproximateBytes() const {
  size_t bytes = tags_.size() * (sizeof(uint8_t) + sizeof(uint64_t));
  for (const std::string& s : strings_) bytes += s.size();
  return bytes;
}

DocValues::Column* DocValues::GetOrCreate(const std::string& field) {
  auto it = columns_.find(field);
  if (it == columns_.end()) {
    it = columns_.emplace(field, Column(num_docs_)).first;
  }
  return &it->second;
}

const DocValues::Column* DocValues::Find(const std::string& field) const {
  auto it = columns_.find(field);
  return it == columns_.end() ? nullptr : &it->second;
}

size_t DocValues::ApproximateBytes() const {
  size_t bytes = 0;
  for (const auto& [name, col] : columns_) {
    bytes += name.size() + col.ApproximateBytes();
  }
  return bytes;
}

}  // namespace esdb
