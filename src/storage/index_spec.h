#ifndef ESDB_STORAGE_INDEX_SPEC_H_
#define ESDB_STORAGE_INDEX_SPEC_H_

#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace esdb {

// Per-table indexing configuration. Shared by the segment builder
// (what to index) and the query optimizer (which access paths exist).
//
// Defaults mirror ESDB: every field gets an exact-term (keyword)
// inverted index and a doc-values column, except:
//  * text_fields are tokenized instead (full-text search),
//  * sub-attributes of the "attributes" column are indexed only when
//    listed in indexed_sub_attributes (frequency-based indexing,
//    Section 3.2) or when index_all_sub_attributes is set (the
//    baseline configuration Figure 18 compares against).
// scan_fields (the paper's "scan list") is consumed by the query
// optimizer only: those columns keep their index, but when a
// candidate posting list already exists the optimizer filters it by
// doc-value sequential scan instead of another index search.
struct IndexSpec {
  // Transparent comparators: the Is* lookups take string_views without
  // building a std::string per call.
  std::set<std::string, std::less<>> text_fields;
  std::set<std::string, std::less<>> scan_fields;
  // Ordered column lists; the composite index name is the columns
  // joined with '_' (e.g. "tenant_id_created_time").
  std::vector<std::vector<std::string>> composite_indexes;
  std::set<std::string, std::less<>> indexed_sub_attributes;
  bool index_all_sub_attributes = false;

  bool IsTextField(std::string_view f) const {
    return text_fields.find(f) != text_fields.end();
  }
  bool IsScanField(std::string_view f) const {
    return scan_fields.find(f) != scan_fields.end();
  }
  bool IsIndexedSubAttribute(std::string_view key) const {
    return index_all_sub_attributes ||
           indexed_sub_attributes.find(key) != indexed_sub_attributes.end();
  }
  // False when no sub-attribute can be indexed, so the segment builder
  // need not parse the attributes string at all.
  bool IndexesSubAttributes() const {
    return index_all_sub_attributes || !indexed_sub_attributes.empty();
  }

  static std::string CompositeName(const std::vector<std::string>& columns);

  // The configuration used by the transaction-log workload: composite
  // index on (tenant_id, created_time), full text on title/nicknames.
  static IndexSpec TransactionLogDefault();
};

}  // namespace esdb

#endif  // ESDB_STORAGE_INDEX_SPEC_H_
