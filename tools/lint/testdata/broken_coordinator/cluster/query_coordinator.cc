// The one coordinator may call the executor entry points.
#include "query/executor.h"

QueryResult RunCoordinated(int n) {
  QueryResult results[4];
  for (int s = 0; s < n && s < 4; ++s) results[s] = ExecuteOnShard(s);
  return AggregateResults(results, n);
}
