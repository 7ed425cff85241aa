#ifndef ESDB_TOOLS_LINT_LINTER_H_
#define ESDB_TOOLS_LINT_LINTER_H_

// esdb_lint: project-specific static analysis over src/.
//
// Seven invariants no off-the-shelf tool knows about this codebase:
//
//   layer-dag           The include-layer DAG. Layers (low to high):
//                         0 common
//                         1 document, storage
//                         2 query, routing
//                         3 replication, consensus, workload
//                         4 balancer, cluster, sim
//                       A file may include its own layer or lower;
//                       an upward include is an error. (workload is
//                       not named in the original DAG; it consumes
//                       query/routing and is consumed by cluster/sim,
//                       which pins it to layer 3.)
//   raw-primitive       std::mutex / std::lock_guard / <mutex> etc.
//                       only inside common/mutex.h; std::thread /
//                       <thread> only inside common/thread_pool.h.
//                       Everything else must go through the annotated
//                       wrappers so the thread-safety analysis sees
//                       every lock in the program.
//   lock-order          ACQUIRED_AFTER / ACQUIRED_BEFORE annotations
//                       across all of src/ form a single global
//                       lock-order graph; a cycle is an error.
//   failpoint-registry  Every ESDB_FAIL_POINT(...) site must name a
//                       failsite:: constant that is declared in
//                       common/failpoint.h AND listed in AllSites()
//                       (common/failpoint.cc), and every registered
//                       site must have at least one code site — the
//                       crash-matrix "MatrixCoversEverySite" loop,
//                       closed at lint time instead of test time.
//   guarded-member      In a class that declares a Mutex/SharedMutex,
//                       every non-static, non-const, non-atomic data
//                       member must carry GUARDED_BY/PT_GUARDED_BY or
//                       an explicit waiver comment on its own line or
//                       the line above:  // lint:unguarded(reason)
//   plan-node-sync      Every enumerator of PlanNode::Kind
//                       (query/plan.h) must appear as a Kind:: token
//                       inside the body of EvalPlan (query/executor.cc,
//                       the executor dispatch), FingerprintFields
//                       (query/filter_cache.cc, the cache fingerprint),
//                       and PlanNode::ToString (query/plan.cc, the
//                       EXPLAIN renderer). A kind added to the planner
//                       but missed in any of the three is a silent
//                       wrong-answer bug; the three-way sync is closed
//                       at lint time. Skipped when query/plan.h is not
//                       among the inputs.
//   single-coordinator  Only cluster/query_coordinator.cc may call the
//                       executor entry points ExecuteOnShard,
//                       ExecuteQueryPhase, ExecuteFetchPhase and
//                       AggregateResults: the one cluster front-end
//                       (Esdb, with or without nodes) runs every
//                       query, EXPLAIN and DML selection through that
//                       one coordinator, so a second fan-out loop
//                       cannot drift from it. Declarations and
//                       definitions (a return type precedes the name)
//                       are not calls.
//
// The linter is deliberately dependency-free (std only, token/line
// level, no libclang): it must build and run everywhere the tree
// builds, including minimal CI containers.

#include <string>
#include <vector>

namespace esdb_lint {

// One input file. `path` is relative to the source root and uses '/'
// separators (e.g. "storage/shard_store.cc"): the first path segment
// is the file's layer directory.
struct SourceFile {
  std::string path;
  std::string contents;
};

// One diagnostic. `line` is 1-based; 0 marks a whole-tree finding
// (e.g. a registry imbalance that has no single anchor line).
struct Finding {
  std::string check;
  std::string file;
  int line = 0;
  std::string message;
};

// Runs every check. Findings are sorted by (file, line, check).
std::vector<Finding> RunLint(const std::vector<SourceFile>& files);

// Individual passes, exposed for the unit tests.
std::vector<Finding> CheckLayerDag(const std::vector<SourceFile>& files);
std::vector<Finding> CheckRawPrimitives(const std::vector<SourceFile>& files);
std::vector<Finding> CheckLockOrder(const std::vector<SourceFile>& files);
std::vector<Finding> CheckFailPointRegistry(
    const std::vector<SourceFile>& files);
std::vector<Finding> CheckGuardedMembers(const std::vector<SourceFile>& files);
std::vector<Finding> CheckPlanNodeSync(const std::vector<SourceFile>& files);
std::vector<Finding> CheckSingleCoordinator(
    const std::vector<SourceFile>& files);

// Replaces comments (and, if `strip_strings`, string/char literals)
// with spaces, preserving the line structure so findings keep exact
// line numbers. Exposed for the unit tests.
std::string StripComments(const std::string& contents, bool strip_strings);

// Machine-readable findings: a JSON array of
//   {"check": ..., "file": ..., "line": N, "message": ...}
std::string ToJson(const std::vector<Finding>& findings);

// "file:line: [check] message" per finding.
std::string ToText(const std::vector<Finding>& findings);

}  // namespace esdb_lint

#endif  // ESDB_TOOLS_LINT_LINTER_H_
