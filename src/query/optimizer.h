#ifndef ESDB_QUERY_OPTIMIZER_H_
#define ESDB_QUERY_OPTIMIZER_H_

#include <memory>
#include <string>

#include "query/ast.h"
#include "query/plan.h"
#include "storage/index_spec.h"

namespace esdb {

// Planner configuration. The defaults are ESDB's rule-based optimizer
// (Section 5.1); disabling both flags reproduces the Lucene-style
// rigid plan (every predicate through its own single-column index)
// that Figure 17 uses as the baseline.
struct PlannerOptions {
  // Use composite indexes with longest-match selection.
  bool use_composite_index = true;
  // Serve scan-list columns by doc-value sequential scan.
  bool use_scan_list = true;
  // Run the statistics-driven transform pass (query/cost.h) over the
  // rule-based plan: LIMIT/ORDER-BY pushdown, stats-only aggregates,
  // selectivity-based access-path choice. Purely a physical rewrite —
  // results are identical with it off.
  bool use_cost_model = true;
};

// Rule-based optimizer. Given a (normalized) WHERE expression, ranks
// access paths per Section 5.1:
//   1. composite index (longest match over AND-connected equality
//      predicates plus one trailing range),
//   2. doc-value sequential scan for scan-list columns,
//   3. single-column index for everything else and for OR branches.
// A null `where` plans as a full scan. The expression should already
// be normalized (NormalizeForPlanning) for best results, but any
// shape is handled.
std::unique_ptr<PlanNode> PlanWhere(const Expr* where, const IndexSpec& spec,
                                    const PlannerOptions& options);

// The encoded-term range [lo, hi) (EncodeSortable byte order) that a
// range predicate (kLt, kLe, kGt, kGe, kBetween) keeps. An exclusive
// lower bound and an inclusive upper bound append '\0', the smallest
// extension; an open upper bound is "\xff", above every rank byte.
void TermBounds(const Predicate& p, std::string* lo, std::string* hi);

}  // namespace esdb

#endif  // ESDB_QUERY_OPTIMIZER_H_
