#include "query/batch/aggregate.h"

#include "query/executor.h"

namespace esdb {
namespace batch {

namespace {

// min/max fold on a slot without materializing it unless it wins.
void FoldMinMax(const TypedSlot& slot, std::optional<Value>* min,
                std::optional<Value>* max) {
  if (!*min || CompareSlotValue(slot, **min) < 0) *min = SlotToValue(slot);
  if (!*max || CompareSlotValue(slot, **max) > 0) *max = SlotToValue(slot);
}

}  // namespace

Aggregator::Aggregator(const Query& query, QueryResult* result,
                       ExecStats* stats)
    : query_(query), result_(result), stats_(stats) {}

void Aggregator::BeginSegment(const Segment& segment) {
  if (!query_.group_by.empty()) {
    group_source_ = SlotSource::Resolve(segment, query_.group_by);
  }
  if (query_.agg != AggFunc::kCount) {
    agg_source_ = SlotSource::Resolve(segment, query_.agg_column);
  }
}

GroupStats* Aggregator::Lookup(const TypedSlot& key) {
  ++stats_->group_lookups;
  return &result_->groups[SlotToValue(key)];
}

GroupStats* Aggregator::Group(const TypedSlot& key) {
  if (key.tag == SlotTag::kString) {
    const std::string& s = key.as_string();
    auto it = strings_.find(std::string_view(s));
    if (it == strings_.end()) it = strings_.emplace(s, Lookup(key)).first;
    return it->second;
  }
  auto [it, inserted] = scalars_.try_emplace(key, nullptr);
  if (inserted) it->second = Lookup(key);
  return it->second;
}

void Aggregator::Add(DocId id) {
  if (!query_.group_by.empty()) {
    GroupStats& group = *Group(group_source_.Read(id));
    ++group.count;
    if (query_.agg != AggFunc::kCount) {
      const TypedSlot v = agg_source_.Read(id);
      if (!v.is_nothing()) {
        if (v.is_numeric()) group.sum += v.NumericValue();
        FoldMinMax(v, &group.min, &group.max);
      }
    }
    return;
  }
  ++result_->agg_count;
  if (query_.agg == AggFunc::kCount) return;
  const TypedSlot v = agg_source_.Read(id);
  if (v.is_nothing()) return;
  // Only the requested aggregate's accumulator is filled: a stats-only
  // answer (TryStatsOnly) can reproduce the requested extremum from
  // index bounds but not the incidental ones, and results must be
  // indistinguishable across plans.
  switch (query_.agg) {
    case AggFunc::kSum:
    case AggFunc::kAvg:
      if (v.is_numeric()) result_->agg_sum += v.NumericValue();
      break;
    case AggFunc::kMin:
      if (!result_->agg_min || CompareSlotValue(v, *result_->agg_min) < 0) {
        result_->agg_min = SlotToValue(v);
      }
      break;
    case AggFunc::kMax:
      if (!result_->agg_max || CompareSlotValue(v, *result_->agg_max) > 0) {
        result_->agg_max = SlotToValue(v);
      }
      break;
    default:
      break;
  }
}

}  // namespace batch
}  // namespace esdb
