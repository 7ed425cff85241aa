#ifndef ESDB_QUERY_BATCH_FILTER_H_
#define ESDB_QUERY_BATCH_FILTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "query/batch/slot.h"
#include "query/plan.h"
#include "storage/posting.h"
#include "storage/segment.h"

namespace esdb {

struct ExecStats;  // query/executor.h

namespace batch {

// Docs evaluated per batch. 1024 selection-vector entries keep the
// working set (ids + gathered payloads) well inside L1/L2 while
// amortizing per-batch setup.
inline constexpr size_t kBatchSize = 1024;

// Physical source of one field's values in a frozen segment: a doc-
// values column, a decoded sub-attribute (attributes.<key> through
// the sidecar), or nothing (the field is absent from the segment —
// every read is Nothing). Resolved ONCE per (query, segment), not per
// (doc, predicate).
struct SlotSource {
  const DocValues::Column* column = nullptr;
  const AttributeSidecar* sidecar = nullptr;
  int32_t key_id = -1;

  static SlotSource Resolve(const Segment& segment, const std::string& field);

  bool missing() const { return column == nullptr && key_id < 0; }

  TypedSlot Read(DocId id) const {
    if (column != nullptr) return column->Slot(id);
    if (key_id >= 0) {
      const std::string* v = sidecar->Get(id, key_id);
      if (v != nullptr) {
        return TypedSlot{SlotTag::kString, uint64_t(uintptr_t(v))};
      }
    }
    return TypedSlot::Nothing();
  }
};

// A compiled filter conjunction for one segment: per predicate, the
// resolved slot source plus a specialization picked up front — an
// int64 range or IN-set loop over an all-int column, an order-key
// range loop over an all-double column, a constant verdict for missing
// fields, or the generic slot evaluator. A fast path's bounds are the
// predicate's literals translated once into the column's own domain by
// the value order (document/slot.h), whatever their type, so each loop
// compares one type. Evaluation is batch-at-a-time: each step compacts
// the selection vector in place, and the whole batch short-circuits
// when it empties.
class FilterProgram {
 public:
  FilterProgram(const Segment& segment, const std::vector<FilterPred>& filters);

  // Filters ids[0..n) in place (n <= kBatchSize), returns survivors.
  size_t EvalBatch(DocId* ids, size_t n) const;

  // True when some filter rejects every doc of the segment (missing
  // column with a never-true predicate): the caller can skip batching
  // entirely.
  bool trivially_empty() const { return trivially_empty_; }

 private:
  enum class Fast : uint8_t {
    kGeneric,      // per-slot EvalPredSlot
    kIntRange,     // all-int column, positions in [lo, hi]
    kIntIn,        // all-int column, positions in a sorted IN set
    kDoubleRange,  // all-double column, order keys in [lo, hi]
  };

  // A fast path compares positions in the column's domain (filter.cc):
  // an int's offset-binary bits, or a double's order key.
  struct Step {
    const Predicate* pred = nullptr;
    bool negated = false;
    SlotSource source;
    Fast fast = Fast::kGeneric;
    uint64_t lo = 0, hi = 0;       // range paths, inclusive
    std::vector<uint64_t> in_set;  // kIntIn, sorted
  };

  static void Specialize(Step* s);

  std::vector<Step> steps_;
  bool trivially_empty_ = false;
};

// Batch-filters `candidates` through `filters`, appending survivors
// in order: exactly the candidates whose slots pass Predicate::Eval
// under each filter's negation.
// Updates stats: docs_filtered (rows in), batches_evaluated,
// batch_rows_passed (rows out).
PostingList FilterPostings(const Segment& segment,
                           const PostingList& candidates,
                           const std::vector<FilterPred>& filters,
                           ExecStats* stats);

}  // namespace batch
}  // namespace esdb

#endif  // ESDB_QUERY_BATCH_FILTER_H_
