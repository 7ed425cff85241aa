#include "storage/column_stats.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/hash.h"
#include "common/varint.h"
#include "storage/doc_values.h"

namespace esdb {

namespace {

// Seed for the KMV hash; any fixed value works, it only needs to be
// stable across processes so serialized sketches stay comparable.
constexpr uint64_t kKmvSeed = 0x5eedc01d5eedc01dull;

}  // namespace

double ColumnSketch::RangeFraction(std::string_view lo,
                                   std::string_view hi) const {
  if (non_null == 0 || hi <= lo) return 0.0;
  // Empty intersection with [min, max] means nothing can match.
  if (!min.is_null()) {
    const std::string min_enc = min.EncodeSortable();
    const std::string max_enc = max.EncodeSortable();
    if (hi <= min_enc || lo > max_enc) return 0.0;
  }
  const double buckets = double(hist.size() + 1);
  // Number of internal bounds strictly below each endpoint gives the
  // bucket index the endpoint lands in.
  const auto bucket_of = [&](std::string_view p) {
    return double(std::lower_bound(hist.begin(), hist.end(), p) -
                  hist.begin());
  };
  const double span = bucket_of(hi) - bucket_of(lo) + 1.0;
  return std::min(1.0, std::max(1.0 / buckets, span / buckets));
}

double ColumnSketch::EqFraction() const {
  if (non_null == 0) return 0.0;
  const double d = double(std::max<uint64_t>(distinct, 1));
  return std::min(1.0, 1.0 / d);
}

ColumnStats ColumnStats::Build(const DocValues& dv) {
  ColumnStats out;
  out.num_docs_ = dv.num_docs();
  for (const auto& [field, col] : dv.columns()) {
    ColumnSketch sk;
    std::vector<std::string> encoded;  // non-null values, for the histogram
    encoded.reserve(col.size());
    // KMV: the kKmvK smallest distinct hashes seen so far, as a
    // max-heap so the largest retained hash is evictable in O(log k).
    std::vector<uint64_t> kmv;
    kmv.reserve(std::min(col.size(), kKmvK + 1));
    bool kmv_saturated = false;
    for (size_t id = 0; id < col.size(); ++id) {
      // Read as a slot: a string value is neither copied out of the
      // column nor encoded twice.
      const TypedSlot v = col.Slot(DocId(id));
      if (v.is_nothing()) continue;
      ++sk.non_null;
      if (v.is_numeric()) {
        ++sk.numeric_count;
        sk.sum += v.NumericValue();
      }
      // Same strict-compare rule as the executor's aggregate fold: the
      // first doc-order occurrence of a compare-equal extremum is kept.
      if (sk.min.is_null() || CompareSlotValue(v, sk.min) < 0) {
        sk.min = SlotToValue(v);
      }
      if (sk.max.is_null() || CompareSlotValue(v, sk.max) > 0) {
        sk.max = SlotToValue(v);
      }
      encoded.push_back(EncodeSortable(v));
      const uint64_t h = HashString(encoded.back(), kKmvSeed);
      if (!kmv_saturated &&
          std::find(kmv.begin(), kmv.end(), h) == kmv.end()) {
        kmv.push_back(h);
        std::push_heap(kmv.begin(), kmv.end());
        if (kmv.size() > kKmvK) {
          // Should not happen (we saturate at exactly kKmvK), kept for
          // clarity of the invariant.
          std::pop_heap(kmv.begin(), kmv.end());
          kmv.pop_back();
        }
        if (kmv.size() == kKmvK) kmv_saturated = true;
      } else if (kmv_saturated && h < kmv.front()) {
        if (std::find(kmv.begin(), kmv.end(), h) == kmv.end()) {
          std::pop_heap(kmv.begin(), kmv.end());
          kmv.back() = h;
          std::push_heap(kmv.begin(), kmv.end());
        }
      }
    }
    if (!kmv_saturated) {
      sk.distinct = kmv.size();
      sk.distinct_exact = true;
    } else {
      // Classic KMV estimator: (k - 1) / F(k-th smallest hash), with
      // hashes mapped to (0, 1].
      const double kth = double(kmv.front()) /
                         (double(uint64_t(1) << 63) * 2.0);
      const double est =
          kth > 0 ? double(kKmvK - 1) / kth : double(sk.non_null);
      sk.distinct = std::min(
          sk.non_null, uint64_t(std::llround(std::max(est, double(kKmvK)))));
      sk.distinct_exact = false;
    }
    if (!encoded.empty()) {
      std::sort(encoded.begin(), encoded.end());
      const size_t n = encoded.size();
      for (size_t b = 1; b < kHistogramBuckets; ++b) {
        const std::string& bound = encoded[(b * n) / kHistogramBuckets];
        if (sk.hist.empty() || sk.hist.back() < bound) {
          sk.hist.push_back(bound);
        }
      }
    }
    out.sketches_.emplace(field, std::move(sk));
  }
  return out;
}

const ColumnSketch* ColumnStats::Find(std::string_view field) const {
  auto it = sketches_.find(field);
  return it == sketches_.end() ? nullptr : &it->second;
}

void ColumnStats::EncodeTo(std::string* out) const {
  PutVarint64(out, num_docs_);
  PutVarint64(out, sketches_.size());
  for (const auto& [field, sk] : sketches_) {
    PutLengthPrefixed(out, field);
    PutVarint64(out, sk.non_null);
    PutVarint64(out, sk.numeric_count);
    PutVarint64(out, std::bit_cast<uint64_t>(sk.sum));
    sk.min.EncodeTo(out);
    sk.max.EncodeTo(out);
    PutVarint64(out, sk.distinct);
    out->push_back(sk.distinct_exact ? '\x01' : '\x00');
    PutVarint64(out, sk.hist.size());
    for (const std::string& h : sk.hist) PutLengthPrefixed(out, h);
  }
}

Status ColumnStats::DecodeFrom(std::string_view data, size_t* pos,
                               ColumnStats* out) {
  out->sketches_.clear();
  uint64_t nsketches = 0;
  if (!GetVarint64(data, pos, &out->num_docs_) ||
      !GetVarint64(data, pos, &nsketches)) {
    return Status::Corruption("column_stats: truncated header");
  }
  for (uint64_t i = 0; i < nsketches; ++i) {
    std::string_view field;
    if (!GetLengthPrefixed(data, pos, &field)) {
      return Status::Corruption("column_stats: truncated field name");
    }
    ColumnSketch sk;
    uint64_t sum_bits = 0;
    if (!GetVarint64(data, pos, &sk.non_null) ||
        !GetVarint64(data, pos, &sk.numeric_count) ||
        !GetVarint64(data, pos, &sum_bits)) {
      return Status::Corruption("column_stats: truncated counters");
    }
    sk.sum = std::bit_cast<double>(sum_bits);
    if (!Value::DecodeFrom(data, pos, &sk.min) ||
        !Value::DecodeFrom(data, pos, &sk.max)) {
      return Status::Corruption("column_stats: truncated min/max");
    }
    uint64_t nhist = 0;
    if (!GetVarint64(data, pos, &sk.distinct) || *pos >= data.size()) {
      return Status::Corruption("column_stats: truncated distinct");
    }
    sk.distinct_exact = data[*pos] != '\x00';
    ++(*pos);
    if (!GetVarint64(data, pos, &nhist)) {
      return Status::Corruption("column_stats: truncated histogram count");
    }
    if (nhist > data.size() - *pos) {
      return Status::Corruption("column_stats: implausible histogram count");
    }
    sk.hist.reserve(nhist);
    for (uint64_t b = 0; b < nhist; ++b) {
      std::string_view bound;
      if (!GetLengthPrefixed(data, pos, &bound)) {
        return Status::Corruption("column_stats: truncated histogram bound");
      }
      sk.hist.emplace_back(bound);
    }
    out->sketches_.emplace(std::string(field), std::move(sk));
  }
  return Status::OK();
}

}  // namespace esdb
