// Tests for the benchmark's own statistics (stats.h). Plain asserts
// that survive NDEBUG, so the test needs nothing beyond the compiler:
//   cmake -S perfbench -B build-perfbench
//   cmake --build build-perfbench --target stats_test
//   ./build-perfbench/stats_test

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                            \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestTailRule() {
  using perfbench::HighestTail;
  using perfbench::SamplesBeyond;
  using perfbench::TailResolves;
  // p99 needs 1000 samples: rank 990 leaves exactly 10 beyond.
  EXPECT(SamplesBeyond(1000, 0.99) == 10);
  EXPECT(TailResolves(1000, 0.99));
  EXPECT(!TailResolves(999, 0.99));
  // p90 needs 100 (the visibility tail, counted in refresh cycles).
  EXPECT(TailResolves(100, 0.90));
  EXPECT(!TailResolves(99, 0.90));
  // The median of 20 samples has 10 beyond; of 19 it has 9.
  EXPECT(TailResolves(20, 0.5));
  EXPECT(!TailResolves(19, 0.5));
  EXPECT(!TailResolves(0, 0.5));
  // Highest supported percentile: (n - 10) / n.
  EXPECT(Near(HighestTail(1000), 0.99));
  EXPECT(Near(HighestTail(200), 0.95));
  EXPECT(HighestTail(10) == 0);
  EXPECT(TailResolves(1000, HighestTail(1000)));
  EXPECT(TailResolves(137, HighestTail(137)));
}

void TestPercentile() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  EXPECT(perfbench::Percentile(&v, 0.5) == 50);
  EXPECT(perfbench::Percentile(&v, 0.99) == 99);
  EXPECT(perfbench::Percentile(&v, 1.0) == 100);
  EXPECT(perfbench::Median({3, 1, 2}) == 2);
}

void TestMetricNames() {
  using perfbench::ValidMetricName;
  EXPECT(ValidMetricName("point_p99_us"));
  EXPECT(ValidMetricName("query.parse_us.point"));
  EXPECT(ValidMetricName("9lives-x"));
  EXPECT(!ValidMetricName(""));
  EXPECT(!ValidMetricName("_leading"));
  EXPECT(!ValidMetricName(".leading"));
  EXPECT(!ValidMetricName("has space"));
  EXPECT(!ValidMetricName("slash/name"));
  EXPECT(ValidMetricName(std::string(64, 'a')));
  EXPECT(!ValidMetricName(std::string(65, 'a')));
}

void TestFastUnits() {
  using perfbench::FastUnits;
  // Nine units in two phases: the fastest third is the three smallest
  // times, wherever they fall.
  const std::vector<double> times = {2.0, 1.0, 2.1, 1.1, 2.2,
                                      2.0, 1.05, 2.3, 2.4};
  const std::vector<bool> fast = FastUnits(times, 1.0 / 3);
  EXPECT(fast.size() == 9);
  EXPECT(std::count(fast.begin(), fast.end(), true) == 3);
  EXPECT(fast[1] && fast[3] && fast[6]);
  // The share rounds up, so a few units still select one.
  const std::vector<bool> two = FastUnits({3.0, 1.0}, 1.0 / 3);
  EXPECT(!two[0] && two[1]);
  // An exact multiple takes exactly that share.
  const std::vector<bool> flat = FastUnits(std::vector<double>(300, 1.0), 1.0 / 3);
  EXPECT(std::count(flat.begin(), flat.end(), true) == 100);
  // Ties go to the earlier unit.
  const std::vector<bool> tied = FastUnits({1.0, 1.0, 1.0, 1.0}, 0.5);
  EXPECT(tied[0] && tied[1] && !tied[2] && !tied[3]);
  EXPECT(FastUnits({}, 1.0 / 3).empty());
  // A run that turns slow at its midpoint: the selection stays in the
  // fast half.
  std::vector<double> drift;
  for (int i = 0; i < 60; ++i) drift.push_back(i < 30 ? 1.0 + 0.001 * i : 1.6);
  const std::vector<bool> early = FastUnits(drift, 1.0 / 3);
  for (int i = 30; i < 60; ++i) EXPECT(!early[i]);
}

void TestFastestRuns() {
  using perfbench::FastestRuns;
  // Three operations run five times each; a fifth keeps one run each,
  // wherever the fast run fell.
  const std::vector<std::vector<double>> by_op = {
      {5, 4, 9, 4.5, 6}, {20, 30, 10, 25, 11}, {1, 2, 3, 4, 5}};
  std::vector<double> kept = FastestRuns(by_op, 1.0 / 5);
  std::sort(kept.begin(), kept.end());
  EXPECT(kept == std::vector<double>({1, 4, 10}));
  // Two fifths of five runs keep two each.
  EXPECT(FastestRuns(by_op, 2.0 / 5).size() == 6);
  // An operation's slow runs never displace another operation's: each
  // keeps its own share.
  const std::vector<std::vector<double>> skewed = {{100, 101}, {1, 2}};
  kept = FastestRuns(skewed, 0.5);
  std::sort(kept.begin(), kept.end());
  EXPECT(kept == std::vector<double>({1, 100}));
  EXPECT(FastestRuns({}, 0.5).empty());
}

}  // namespace

int main() {
  TestTailRule();
  TestPercentile();
  TestMetricNames();
  TestFastUnits();
  TestFastestRuns();
  if (failures > 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", failures);
    return 1;
  }
  std::printf("stats_test: all passed\n");
  return 0;
}
