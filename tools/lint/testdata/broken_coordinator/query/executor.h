// The executor entry points: declarations are not calls.
#ifndef FIXTURE_QUERY_EXECUTOR_H_
#define FIXTURE_QUERY_EXECUTOR_H_

struct QueryResult {};

QueryResult ExecuteOnShard(int shard);
QueryResult AggregateResults(const QueryResult* results, int n);

#endif  // FIXTURE_QUERY_EXECUTOR_H_
