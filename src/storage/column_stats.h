#ifndef ESDB_STORAGE_COLUMN_STATS_H_
#define ESDB_STORAGE_COLUMN_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "document/value.h"

namespace esdb {

class DocValues;

// Per-column sketch computed once at segment freeze (build / merge /
// decode): exact min/max/sum, a KMV approximate distinct count, and a
// small equi-depth histogram over the order-preserving encoded values.
// The cost-based transform pass (query/cost.h) consumes these to pick
// access paths and to answer MIN/MAX/COUNT without touching postings.
//
// min/max follow the value order (document/slot.h) with the same
// strict-compare, doc-order rule as the executor's aggregate fold, so
// a stats-only MIN/MAX answer is byte-identical to the scanning plan's
// (first doc-order occurrence wins among compare-equal values), and
// the histogram's byte order is that same order. `sum` is the
// doc-order double sum WITHIN this segment; cross-segment addition
// order differs from a single sequential scan, so the planner never
// answers SUM/AVG from stats (float addition is not associative).
struct ColumnSketch {
  uint64_t non_null = 0;       // docs with a non-null value
  uint64_t numeric_count = 0;  // docs with an int/double value
  double sum = 0.0;            // doc-order sum of numeric values
  Value min;                   // null when the column has no non-null value
  Value max;
  uint64_t distinct = 0;       // KMV estimate; exact when distinct_exact
  bool distinct_exact = false;
  // Equi-depth histogram: internal quantile bounds over the sorted
  // EncodeSortable() bytes of non-null values (ascending, at most
  // kHistogramBuckets - 1 entries).
  std::vector<std::string> hist;

  // Estimated fraction of non-null values whose encoded form falls in
  // [lo, hi). Histogram-fidelity: quantized to whole buckets, clamped
  // to [1/buckets, 1] when the range is non-empty by min/max bounds.
  double RangeFraction(std::string_view lo, std::string_view hi) const;
  // Estimated fraction matched by an equality predicate (average run
  // length / non_null).
  double EqFraction() const;
};

// All column sketches of one segment, keyed by field name. Serialized
// in the segment encoding (mandatory trailer, see segment.cc) so that
// decode — including cold-tier pins and checkpoint restores — never
// rescans columns.
class ColumnStats {
 public:
  static constexpr size_t kHistogramBuckets = 8;
  static constexpr size_t kKmvK = 64;

  // Scans every column of `dv` once. Deterministic for a given
  // DocValues content.
  static ColumnStats Build(const DocValues& dv);

  const ColumnSketch* Find(std::string_view field) const;
  const std::map<std::string, ColumnSketch, std::less<>>& sketches() const {
    return sketches_;
  }
  uint64_t num_docs() const { return num_docs_; }

  // Deterministic serialization: encode(decode(x)) is byte-identical.
  void EncodeTo(std::string* out) const;
  [[nodiscard]] static Status DecodeFrom(std::string_view data, size_t* pos,
                                         ColumnStats* out);

 private:
  uint64_t num_docs_ = 0;
  std::map<std::string, ColumnSketch, std::less<>> sketches_;
};

}  // namespace esdb

#endif  // ESDB_STORAGE_COLUMN_STATS_H_
