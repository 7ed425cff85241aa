#ifndef ESDB_QUERY_BATCH_AGGREGATE_H_
#define ESDB_QUERY_BATCH_AGGREGATE_H_

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "query/ast.h"
#include "query/batch/filter.h"
#include "storage/segment.h"

namespace esdb {

struct ExecStats;    // query/executor.h
struct GroupStats;   // query/executor.h
struct QueryResult;  // query/executor.h

namespace batch {

// The aggregate fold (COUNT/SUM/AVG/MIN/MAX, grouped or not) of one
// shard's ExecuteOnShard, segment at a time. The group-by key and the
// aggregate input are read as slots through SlotSources resolved once
// per segment; no Value is built until a group key or a new min/max
// has to be stored.
//
// GROUP BY goes through a group table that maps each distinct key
// slot to the GroupStats it folds into, so QueryResult::groups (a
// std::map<Value>) is searched once per distinct slot instead of once
// per doc. bool/int/double slots are keyed by (tag, payload); string
// slots by their contents, copied out of the segment (the column
// interns every doc's string separately, and the segment is unpinned
// after its scan). The table lives as long as the shard's fold:
// result->groups never drops or re-keys an entry, so a cached pointer
// stays the answer a fresh lookup would give. Several slots may share
// one GroupStats (5 and 5.0, -0.0 and 0.0, two NaN payloads), exactly
// as the map lookups they replace would have: the value order is total
// (document/slot.h), so one key always finds one group. Docs fold in
// candidate order with the same count/sum/min/max rules, so the
// representative key, double sums and min/max ties are unchanged by
// construction.
class Aggregator {
 public:
  Aggregator(const Query& query, QueryResult* result, ExecStats* stats);

  // Resolves `segment`'s group-by / aggregate columns. Call before the
  // segment's first Add.
  void BeginSegment(const Segment& segment);

  // Folds one surviving doc of the current segment into the result;
  // docs must arrive in candidate order.
  void Add(DocId id);

 private:
  struct ScalarHash {
    size_t operator()(const TypedSlot& s) const {
      return size_t(s.payload * 0x9e3779b97f4a7c15ull) ^ size_t(s.tag);
    }
  };
  struct ScalarEq {
    bool operator()(const TypedSlot& a, const TypedSlot& b) const {
      return a.tag == b.tag && a.payload == b.payload;
    }
  };
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  GroupStats* Group(const TypedSlot& key);
  // One QueryResult::groups lookup (counted in ExecStats::group_lookups).
  GroupStats* Lookup(const TypedSlot& key);

  const Query& query_;
  QueryResult* result_;
  ExecStats* stats_;
  SlotSource group_source_;  // valid when query has GROUP BY
  SlotSource agg_source_;    // valid when agg != kCount
  std::unordered_map<TypedSlot, GroupStats*, ScalarHash, ScalarEq> scalars_;
  std::unordered_map<std::string, GroupStats*, StringHash, std::equal_to<>>
      strings_;
};

}  // namespace batch
}  // namespace esdb

#endif  // ESDB_QUERY_BATCH_AGGREGATE_H_
