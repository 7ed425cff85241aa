// A front-end that grew its own serial fan-out: a second coordinator.
#include "query/executor.h"

QueryResult RunSerially(int n) {
  QueryResult results[4];
  for (int s = 0; s < n && s < 4; ++s) results[s] = ExecuteOnShard(s);
  return AggregateResults(results, n);
}
