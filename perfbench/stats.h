#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// The benchmark's own statistics: nearest-rank percentiles, the rule
// that decides which tail a sample set can support, metric-name
// validation, and the selection of the fastest runs of repeated work. Kept free of engine
// headers so stats_test.cc can exercise it on synthetic inputs.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string_view>
#include <vector>

namespace perfbench {

// A reported tail must have at least this many samples beyond it.
inline constexpr size_t kTailBeyond = 10;

// Nearest-rank index of percentile `p` (0 < p <= 1) among `n` sorted
// samples: the smallest rank with at least p*n samples at or below it.
inline size_t RankIndex(size_t n, double p) {
  size_t rank = size_t(std::ceil(p * double(n) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, n);
  return rank - 1;
}

// Samples strictly above percentile `p`'s rank.
inline size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - RankIndex(n, p) - 1;
}

// True when percentile `p` of `n` samples leaves at least kTailBeyond
// samples beyond it, i.e. the tail is resolved by the data.
inline bool TailResolves(size_t n, double p) {
  return n > 0 && SamplesBeyond(n, p) >= kTailBeyond;
}

// The highest percentile with at least kTailBeyond samples beyond it
// (0 when `n` cannot support any tail).
inline double HighestTail(size_t n) {
  if (n <= kTailBeyond) return 0;
  return double(n - kTailBeyond) / double(n);
}

// Nearest-rank percentile of `values` (sorted in place).
inline double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return 0;
  std::sort(values->begin(), values->end());
  return (*values)[RankIndex(values->size(), p)];
}

inline double Median(std::vector<double> values) {
  return Percentile(&values, 0.5);
}

// Metric names: a letter or digit first, then letters, digits, '_',
// '.' and '-', at most 64 characters.
inline bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  for (char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

// Share of a repeated operation's runs a time metric keeps.
inline constexpr double kFastShare = 1.0 / 5;

// The host this benchmark runs on alternates between fast and slow
// phases, up to 1.7x apart, lasting from milliseconds to minutes, and
// a run's share of slow time decided its medians. A run therefore
// repeats the same work (the same inputs on the same starting state)
// many times, and its time metrics keep, for each operation, its
// fastest runs: since the work is identical, only the host's phase
// tells them apart.
//
// Returns a mask selecting the ceil(share * n) of `times` that are
// smallest (ties go to the earlier one).
inline std::vector<bool> FastUnits(const std::vector<double>& times,
                                   double share) {
  const size_t n = times.size();
  const size_t keep = std::min(n, size_t(std::ceil(share * double(n) - 1e-9)));
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return times[a] < times[b];
  });
  std::vector<bool> fast(n, false);
  for (size_t i = 0; i < keep; ++i) fast[order[i]] = true;
  return fast;
}

// `by_op[i]` holds the times of every run of operation i. Returns the
// fastest share of each operation's runs, all operations together.
inline std::vector<double> FastestRuns(
    const std::vector<std::vector<double>>& by_op, double share) {
  std::vector<double> out;
  for (const std::vector<double>& runs : by_op) {
    const std::vector<bool> fast = FastUnits(runs, share);
    for (size_t r = 0; r < runs.size(); ++r) {
      if (fast[r]) out.push_back(runs[r]);
    }
  }
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
