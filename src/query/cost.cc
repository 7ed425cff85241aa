#include "query/cost.h"

#include <algorithm>

#include "query/executor.h"
#include "query/optimizer.h"

namespace esdb {

StatsView StatsView::Collect(const std::vector<SegmentSnapshot>& snapshots) {
  StatsView out;
  for (const SegmentSnapshot& snapshot : snapshots) {
    if (snapshot == nullptr) continue;
    for (const SegmentView& view : *snapshot) {
      out.total_docs_ += view.num_docs();
      if (view.is_cold() || view.segment == nullptr) continue;
      const ColumnStats* stats = view.segment->column_stats();
      if (stats == nullptr) continue;
      out.segments_.push_back(SegmentStats{stats, view.num_docs()});
      out.stats_docs_ += view.num_docs();
    }
  }
  return out;
}

double StatsView::EqFraction(const std::string& column) const {
  if (total_docs_ == 0) return 1.0;
  if (stats_docs_ == 0) return 1.0;
  double matched = 0;
  for (const SegmentStats& s : segments_) {
    const ColumnSketch* sk = s.stats->Find(column);
    // A missing sketch means the column does not exist in that
    // segment: nothing there can match an equality.
    if (sk != nullptr) matched += sk->EqFraction() * double(sk->non_null);
  }
  // Docs not covered by sketches (cold segments) count as matching:
  // unknown data must not make a predicate look selective.
  matched += double(total_docs_ - std::min(total_docs_, stats_docs_));
  return std::min(1.0, matched / double(total_docs_));
}

double StatsView::RangeFraction(const std::string& column,
                                std::string_view lo,
                                std::string_view hi) const {
  if (total_docs_ == 0) return 1.0;
  if (stats_docs_ == 0) return 1.0;
  double matched = 0;
  for (const SegmentStats& s : segments_) {
    const ColumnSketch* sk = s.stats->Find(column);
    if (sk != nullptr) {
      matched += sk->RangeFraction(lo, hi) * double(sk->non_null);
    }
  }
  matched += double(total_docs_ - std::min(total_docs_, stats_docs_));
  return std::min(1.0, matched / double(total_docs_));
}

namespace {

using Kind = PlanNode::Kind;

// Demote an index leaf when its estimated fraction exceeds this (a
// quarter of the corpus is cheaper to filter than to union postings
// for)...
constexpr double kDemoteMin = 0.25;
// ...but only when a selective anchor below this fraction remains to
// supply a small candidate set.
constexpr double kAnchorMax = 0.10;
// Default fraction for a range whose per-column bounds are folded into
// a composite key (not recoverable without decoding the key).
constexpr double kUnknownRangeFraction = 1.0 / 3.0;

const std::vector<std::string>* CompositeColumns(const IndexSpec& spec,
                                                 const std::string& name) {
  for (const std::vector<std::string>& columns : spec.composite_indexes) {
    if (IndexSpec::CompositeName(columns) == name) return &columns;
  }
  return nullptr;
}

// Estimated fraction matched by one residual filter predicate.
double EstimateFilterFraction(const StatsView& stats, const FilterPred& f) {
  if (f.negated) return 1.0;
  const Predicate& p = f.pred;
  switch (p.op) {
    case PredOp::kEq:
      return stats.EqFraction(p.column);
    case PredOp::kIn:
      return std::min(1.0, double(p.args.size()) * stats.EqFraction(p.column));
    case PredOp::kLt:
    case PredOp::kLe:
    case PredOp::kGt:
    case PredOp::kGe:
    case PredOp::kBetween: {
      std::string lo, hi;
      TermBounds(p, &lo, &hi);
      return stats.RangeFraction(p.column, lo, hi);
    }
    default:
      return 1.0;  // kNe, kLike, kMatch, null tests: no sketch shape fits
  }
}

double EstimateFraction(const StatsView& stats, const IndexSpec& spec,
                        const PlanNode& plan) {
  double est = 1.0;
  switch (plan.kind) {
    case Kind::kEmpty:
      return 0.0;
    case Kind::kFullScan:
      est = 1.0;
      break;
    case Kind::kTermLookup:
      est = std::min(1.0,
                     double(plan.terms.size()) * stats.EqFraction(plan.field));
      break;
    case Kind::kTermRange:
      est = stats.RangeFraction(plan.field, plan.lo_term, plan.hi_term);
      break;
    case Kind::kCompositeScan:
    case Kind::kIndexTopK: {
      const std::vector<std::string>* columns =
          CompositeColumns(spec, plan.index_name);
      est = 1.0;
      for (int i = 0; columns != nullptr && i < plan.eq_prefix_len &&
                      size_t(i) < columns->size();
           ++i) {
        est *= stats.EqFraction((*columns)[i]);
      }
      if (!plan.key_range_eq_only) est *= kUnknownRangeFraction;
      break;
    }
    case Kind::kDocValueFilter:
    case Kind::kStatsOnly:
      est = plan.children.empty()
                ? 1.0
                : EstimateFraction(stats, spec, *plan.children[0]);
      break;
    case Kind::kIntersect: {
      est = 1.0;
      for (const auto& child : plan.children) {
        est *= EstimateFraction(stats, spec, *child);
      }
      break;
    }
    case Kind::kUnion: {
      est = 0.0;
      for (const auto& child : plan.children) {
        est += EstimateFraction(stats, spec, *child);
      }
      est = std::min(1.0, est);
      break;
    }
  }
  for (const FilterPred& f : plan.filters) {
    est *= EstimateFilterFraction(stats, f);
  }
  return est;
}

// --- Transform 1: demote unselective index leaves to filters ----------
//
// Under an AND with a selective anchor, an index leaf estimated to
// match a large fraction of the corpus costs more to union/intersect
// than to re-check per candidate by doc-value scan. Moves such leaves'
// predicate equivalents (PlanNode::residual_equiv) into the filter
// list. Result-preserving: Predicate::Eval over the doc value and the
// keyword index agree on which docs match (terms are the sortable
// encodings of the same values).
bool TryDemoteToFilter(const IndexSpec& spec, const StatsView& stats,
                       std::unique_ptr<PlanNode>* plan) {
  if (!stats.has_stats()) return false;
  PlanNode* root = plan->get();
  PlanNode* filter_holder = nullptr;
  PlanNode* intersect = root;
  if (root->kind == Kind::kDocValueFilter && root->children.size() == 1) {
    filter_holder = root;
    intersect = root->children[0].get();
  }
  if (intersect->kind != Kind::kIntersect) return false;

  std::vector<double> est;
  est.reserve(intersect->children.size());
  double anchor = 1.0;
  for (const auto& child : intersect->children) {
    est.push_back(EstimateFraction(stats, spec, *child));
    anchor = std::min(anchor, est.back());
  }
  if (anchor > kAnchorMax) return false;

  // Decide first, move second: the plan must stay intact when no
  // child qualifies.
  std::vector<bool> demote(intersect->children.size(), false);
  bool any = false;
  for (size_t i = 0; i < intersect->children.size(); ++i) {
    const PlanNode& child = *intersect->children[i];
    const bool demotable = (child.kind == Kind::kTermLookup ||
                            child.kind == Kind::kTermRange) &&
                           !child.residual_equiv.empty();
    if (demotable && est[i] > kDemoteMin && est[i] > anchor) {
      demote[i] = true;
      any = true;
    }
  }
  if (!any) return false;
  std::vector<FilterPred> demoted;
  std::vector<std::unique_ptr<PlanNode>> kept;
  for (size_t i = 0; i < intersect->children.size(); ++i) {
    std::unique_ptr<PlanNode>& child = intersect->children[i];
    if (demote[i]) {
      for (FilterPred& f : child->residual_equiv) {
        demoted.push_back(std::move(f));
      }
    } else {
      kept.push_back(std::move(child));
    }
  }
  // The anchor (est <= kAnchorMax < kDemoteMin) is never demoted, so
  // at least one index child always remains.
  std::unique_ptr<PlanNode> base;
  if (kept.size() == 1) {
    base = std::move(kept[0]);
  } else {
    base = PlanNode::Make(Kind::kIntersect);
    base->children = std::move(kept);
  }
  if (filter_holder != nullptr) {
    for (FilterPred& f : demoted) {
      filter_holder->filters.push_back(std::move(f));
    }
    filter_holder->children[0] = std::move(base);
  } else {
    auto filter = PlanNode::Make(Kind::kDocValueFilter);
    filter->filters = std::move(demoted);
    filter->children.push_back(std::move(base));
    *plan = std::move(filter);
  }
  return true;
}

// --- Transform 2: ORDER-BY/LIMIT pushdown (kIndexTopK) ----------------
//
// When the first ORDER-BY column is the composite index's
// next-after-equality column, index key order IS the output order:
// walk the key range and stop after offset+limit live matches (plus
// first-column ties — a superset of the stable-sort winners even for
// multi-column ORDER BY). Purely structural: needs no statistics, so
// it fires on empty and cold-only shards too.
bool TryLimitPushdown(const Query& query, const IndexSpec& spec,
                      std::unique_ptr<PlanNode>* plan) {
  if (query.agg != AggFunc::kNone || !query.group_by.empty()) return false;
  if (query.limit < 0 || query.order_by.empty()) return false;
  const OrderBy& primary = query.order_by[0];
  if (primary.column == kFieldScore) return false;  // needs scoring pass

  PlanNode* root = plan->get();
  auto topk = PlanNode::Make(Kind::kIndexTopK);
  if (root->kind == Kind::kCompositeScan ||
      (root->kind == Kind::kDocValueFilter && root->children.size() == 1 &&
       root->children[0]->kind == Kind::kCompositeScan)) {
    PlanNode* scan = root->kind == Kind::kCompositeScan
                         ? root
                         : root->children[0].get();
    const std::vector<std::string>* columns =
        CompositeColumns(spec, scan->index_name);
    if (columns == nullptr) return false;
    if (size_t(scan->eq_prefix_len) >= columns->size()) return false;
    if ((*columns)[size_t(scan->eq_prefix_len)] != primary.column) {
      return false;
    }
    topk->index_name = scan->index_name;
    topk->key_range = scan->key_range;
    topk->eq_prefix_len = scan->eq_prefix_len;
    topk->key_range_eq_only = scan->key_range_eq_only;
    if (scan != root) topk->filters = std::move(root->filters);
  } else if (root->kind == Kind::kFullScan) {
    // No indexable predicate, but composite entries are null-padded —
    // every doc has exactly one key — so a whole-index walk ordered by
    // a leading column serves ORDER BY <that column>.
    const std::vector<std::string>* columns = nullptr;
    for (const std::vector<std::string>& c : spec.composite_indexes) {
      if (!c.empty() && c[0] == primary.column) {
        columns = &c;
        break;
      }
    }
    if (columns == nullptr) return false;
    topk->index_name = IndexSpec::CompositeName(*columns);
    // Every key starts with a type-rank byte < 0xff, so ["", "\xff")
    // spans the whole index.
    topk->key_range.lo.clear();
    topk->key_range.hi.assign(1, '\xff');
    topk->eq_prefix_len = 0;
    topk->filters = std::move(root->filters);
  } else {
    return false;
  }
  topk->topk_cap = query.limit + query.offset;
  topk->topk_reverse = primary.descending;
  *plan = std::move(topk);
  return true;
}

// --- Transform 3: stats-only aggregates (kStatsOnly) ------------------
//
// Unfiltered COUNT/MIN/MAX read the per-segment sketches; an
// equality-prefix composite scan answers COUNT from CountRange and
// MIN/MAX of the next key column from the range's edge entries. SUM
// and AVG are never stats-answered: double addition is not
// associative, so a different merge order could flip low bits. The
// original plan rides along as child[0] — segments with tombstones
// fall back to it per segment.
bool TryStatsOnly(const Query& query, const IndexSpec& spec,
                  std::unique_ptr<PlanNode>* plan) {
  if (!query.group_by.empty()) return false;
  if (query.agg != AggFunc::kCount && query.agg != AggFunc::kMin &&
      query.agg != AggFunc::kMax) {
    return false;
  }
  const bool minmax = query.agg != AggFunc::kCount;
  if (minmax) {
    // Sidecar-resolved virtual columns ("attributes.<key>") and _score
    // have no doc-values sketch; their MIN/MAX must scan.
    if (query.agg_column.find('.') != std::string::npos ||
        query.agg_column == kFieldScore) {
      return false;
    }
  }

  PlanNode* root = plan->get();
  auto node = PlanNode::Make(Kind::kStatsOnly);
  if (root->kind == Kind::kFullScan && root->filters.empty()) {
    // Whole-corpus aggregate: per-segment sketches carry it.
  } else if (root->kind == Kind::kCompositeScan) {
    if (minmax) {
      const std::vector<std::string>* columns =
          CompositeColumns(spec, root->index_name);
      if (columns == nullptr) return false;
      if (!root->key_range_eq_only) return false;
      if (root->eq_prefix_len < 1 ||
          size_t(root->eq_prefix_len) >= columns->size()) {
        return false;
      }
      if ((*columns)[size_t(root->eq_prefix_len)] != query.agg_column) {
        return false;
      }
    }
    // COUNT needs only the key range: CountRange is exact for any
    // composite scan (one index entry per doc).
    node->index_name = root->index_name;
    node->key_range = root->key_range;
    node->eq_prefix_len = root->eq_prefix_len;
    node->key_range_eq_only = root->key_range_eq_only;
  } else {
    return false;
  }
  node->children.push_back(std::move(*plan));
  *plan = std::move(node);
  return true;
}

}  // namespace

double EstimatePlanFraction(const StatsView& stats, const IndexSpec& spec,
                            const PlanNode& plan) {
  return EstimateFraction(stats, spec, plan);
}

CostDecision ApplyCostTransforms(const Query& query, const IndexSpec& spec,
                                 const StatsView& stats,
                                 std::unique_ptr<PlanNode>* plan) {
  CostDecision decision;
  std::vector<std::string> applied;
  // Demotion first: it can strip an Intersect down to the bare
  // composite scan that the pushdown / stats-only shapes require.
  if (TryDemoteToFilter(spec, stats, plan)) {
    applied.push_back("demote-filter");
  }
  if (TryLimitPushdown(query, spec, plan)) {
    applied.push_back("index-topk");
  } else if (TryStatsOnly(query, spec, plan)) {
    applied.push_back("stats-only");
  }
  if (!applied.empty()) {
    decision.transform = applied[0];
    for (size_t i = 1; i < applied.size(); ++i) {
      decision.transform += "," + applied[i];
    }
  }
  decision.estimated_rows =
      EstimateFraction(stats, spec, **plan) * double(stats.total_docs());
  return decision;
}

}  // namespace esdb
