#ifndef ESDB_DOCUMENT_DOCUMENT_H_
#define ESDB_DOCUMENT_DOCUMENT_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "document/value.h"

namespace esdb {

// Well-known field names of Alibaba transaction logs used by the
// router and load balancer (Section 6.1): every document carries a
// tenant ID (seller), a unique record ID (transaction) and a creation
// time, plus an arbitrary set of further fields.
inline constexpr const char* kFieldTenantId = "tenant_id";
inline constexpr const char* kFieldRecordId = "record_id";
inline constexpr const char* kFieldCreatedTime = "created_time";
inline constexpr const char* kFieldAttributes = "attributes";

// Schema-flexible document: an ordered map from field name to scalar
// value. Ordered so serialization is canonical.
class Document {
 public:
  Document() = default;

  void Set(std::string field, Value value) {
    fields_[std::move(field)] = std::move(value);
  }

  bool Has(std::string_view field) const {
    return fields_.find(std::string(field)) != fields_.end();
  }

  // Returns the field value or a null Value when absent.
  const Value& Get(std::string_view field) const;

  size_t size() const { return fields_.size(); }
  const std::map<std::string, Value>& fields() const { return fields_; }

  // Routing-relevant accessors; return 0 when the field is missing or
  // non-integer (callers validate documents at the write boundary).
  int64_t tenant_id() const { return Get(kFieldTenantId).is_int() ? Get(kFieldTenantId).as_int() : 0; }
  int64_t record_id() const { return Get(kFieldRecordId).is_int() ? Get(kFieldRecordId).as_int() : 0; }
  Micros created_time() const { return Get(kFieldCreatedTime).is_int() ? Get(kFieldCreatedTime).as_int() : 0; }

  // Binary round-trip used by the translog and segment stored fields.
  // Serialize is canonical (fields in name order), so
  // Serialize(Deserialize(bytes)) == bytes for any Serialize output.
  std::string Serialize() const;
  [[nodiscard]] static Result<Document> Deserialize(std::string_view data);
  // Whether serialized `data` carries `field` (explicit null included),
  // reading field names without materializing the document.
  [[nodiscard]] static Result<bool> SerializedHas(std::string_view data,
                                                  std::string_view field);

  bool operator==(const Document& other) const {
    return fields_ == other.fields_;
  }

 private:
  std::map<std::string, Value> fields_;
};

// The "attributes" column (Section 2.1): ~1500 merchant-defined
// sub-attributes concatenated into one string, "key1:val1;key2:val2".
// Keys and values must not contain ':' or ';'.
std::string EncodeAttributes(
    const std::map<std::string, std::string>& sub_attributes);
std::map<std::string, std::string> ParseAttributes(std::string_view encoded);
// The same pairs as views into `encoded`, in key order: the last of
// duplicate keys wins and pieces without ':' are skipped.
std::vector<std::pair<std::string_view, std::string_view>> ParseAttributeViews(
    std::string_view encoded);

// Name of the synthetic per-sub-attribute field that frequency-based
// indexing materializes, e.g. "attributes.activity".
std::string SubAttributeField(std::string_view sub_attribute_key);

}  // namespace esdb

#endif  // ESDB_DOCUMENT_DOCUMENT_H_
