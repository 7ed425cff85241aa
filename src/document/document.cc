#include "document/document.h"

#include <algorithm>

#include "common/strings.h"
#include "common/varint.h"

namespace esdb {

namespace {
const Value kNullValue;


}  // namespace

const Value& Document::Get(std::string_view field) const {
  auto it = fields_.find(std::string(field));
  return it == fields_.end() ? kNullValue : it->second;
}

std::string Document::Serialize() const {
  std::string out;
  PutVarint64(&out, fields_.size());
  for (const auto& [name, value] : fields_) {
    PutLengthPrefixed(&out, name);
    value.EncodeTo(&out);
  }
  return out;
}

Result<Document> Document::Deserialize(std::string_view data) {
  Document doc;
  size_t pos = 0;
  uint64_t n = 0;
  if (!GetVarint64(data, &pos, &n)) {
    return Status::Corruption("document: truncated field count");
  }
  for (uint64_t i = 0; i < n; ++i) {
    std::string_view name;
    if (!GetLengthPrefixed(data, &pos, &name)) {
      return Status::Corruption("document: truncated field name");
    }
    Value value;
    if (!Value::DecodeFrom(data, &pos, &value)) {
      return Status::Corruption("document: truncated field value");
    }
    doc.Set(std::string(name), std::move(value));
  }
  if (pos != data.size()) {
    return Status::Corruption("document: trailing bytes");
  }
  return doc;
}

Result<bool> Document::SerializedHas(std::string_view data,
                                     std::string_view field) {
  size_t pos = 0;
  uint64_t n = 0;
  if (!GetVarint64(data, &pos, &n)) {
    return Status::Corruption("document: truncated field count");
  }
  for (uint64_t i = 0; i < n; ++i) {
    std::string_view name;
    Value skipped;
    if (!GetLengthPrefixed(data, &pos, &name) ||
        !Value::DecodeFrom(data, &pos, &skipped)) {
      return Status::Corruption("document: truncated field");
    }
    if (name == field) return true;
  }
  return false;
}

std::string EncodeAttributes(
    const std::map<std::string, std::string>& sub_attributes) {
  std::string out;
  for (const auto& [key, value] : sub_attributes) {
    if (!out.empty()) out.push_back(';');
    out.append(key);
    out.push_back(':');
    out.append(value);
  }
  return out;
}

std::map<std::string, std::string> ParseAttributes(std::string_view encoded) {
  std::map<std::string, std::string> out;
  for (const auto& [key, value] : ParseAttributeViews(encoded)) {
    out.emplace_hint(out.end(), key, value);
  }
  return out;
}

std::vector<std::pair<std::string_view, std::string_view>> ParseAttributeViews(
    std::string_view encoded) {
  std::vector<std::pair<std::string_view, std::string_view>> out;
  if (encoded.empty()) return out;
  for (std::string_view pair : StrSplit(encoded, ';')) {
    const size_t colon = pair.find(':');
    if (colon == std::string_view::npos) continue;  // malformed pair
    out.emplace_back(pair.substr(0, colon), pair.substr(colon + 1));
  }
  // Stable, so within a run of equal keys the last one parsed is last.
  std::stable_sort(out.begin(), out.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  size_t kept = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    if (i + 1 < out.size() && out[i + 1].first == out[i].first) continue;
    out[kept++] = out[i];
  }
  out.resize(kept);
  return out;
}

std::string SubAttributeField(std::string_view sub_attribute_key) {
  std::string out(kFieldAttributes);
  out.push_back('.');
  out.append(sub_attribute_key);
  return out;
}

}  // namespace esdb
