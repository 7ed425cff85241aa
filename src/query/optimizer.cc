#include "query/optimizer.h"

#include <algorithm>

#include "document/document.h"
#include "query/normalize.h"
#include "storage/analyzer.h"

namespace esdb {

namespace {

bool IsRangePredOp(PredOp op) {
  return op == PredOp::kLt || op == PredOp::kLe || op == PredOp::kGt ||
         op == PredOp::kGe || op == PredOp::kBetween;
}

// True when `field` has an exact-term inverted index usable for
// equality/range lookups.
bool HasKeywordIndex(const IndexSpec& spec, const std::string& field) {
  if (spec.IsTextField(field)) return false;  // tokenized, not exact
  const size_t dot = field.find('.');
  if (dot != std::string::npos &&
      field.compare(0, dot, kFieldAttributes) == 0) {
    return spec.IsIndexedSubAttribute(field.substr(dot + 1));
  }
  return true;
}

std::unique_ptr<PlanNode> MakeFilterScan(Predicate pred, bool negated) {
  auto node = PlanNode::Make(PlanNode::Kind::kFullScan);
  node->filters.push_back(FilterPred{std::move(pred), negated});
  return node;
}

// Plans one predicate as a standalone node (used for OR branches and
// leftover AND conjuncts). May produce a FullScan+filter fallback.
std::unique_ptr<PlanNode> PlanPredicateLeaf(const Predicate& p,
                                            const IndexSpec& spec) {
  if (p.op == PredOp::kIn && p.args.empty()) {
    return PlanNode::Make(PlanNode::Kind::kEmpty);
  }
  if (p.op == PredOp::kMatch && spec.IsTextField(p.column) &&
      p.args[0].is_string()) {
    const std::vector<std::string> tokens = Tokenize(p.args[0].as_string());
    if (tokens.empty()) return PlanNode::Make(PlanNode::Kind::kFullScan);
    std::vector<std::unique_ptr<PlanNode>> children;
    for (const std::string& token : tokens) {
      auto leaf = PlanNode::Make(PlanNode::Kind::kTermLookup);
      leaf->field = p.column;
      leaf->terms.push_back(token);
      children.push_back(std::move(leaf));
    }
    if (children.size() == 1) return std::move(children[0]);
    auto node = PlanNode::Make(PlanNode::Kind::kIntersect);
    node->children = std::move(children);
    return node;
  }
  if (!HasKeywordIndex(spec, p.column)) {
    return MakeFilterScan(p, /*negated=*/false);
  }
  switch (p.op) {
    case PredOp::kEq:
    case PredOp::kIn: {
      auto node = PlanNode::Make(PlanNode::Kind::kTermLookup);
      node->field = p.column;
      for (const Value& v : p.args) node->terms.push_back(v.EncodeSortable());
      node->residual_equiv.push_back(FilterPred{p, /*negated=*/false});
      return node;
    }
    case PredOp::kLt:
    case PredOp::kLe:
    case PredOp::kGt:
    case PredOp::kGe:
    case PredOp::kBetween: {
      auto node = PlanNode::Make(PlanNode::Kind::kTermRange);
      node->field = p.column;
      TermBounds(p, &node->lo_term, &node->hi_term);
      node->residual_equiv.push_back(FilterPred{p, /*negated=*/false});
      return node;
    }
    default:
      // kNe, kLike, kIsNull, kIsNotNull, kMatch on keyword fields:
      // no index shape fits; scan.
      return MakeFilterScan(p, /*negated=*/false);
  }
}

// Longest-match composite index selection over the AND-group
// predicates. Returns the number of predicates consumed (0 = no
// composite applies) and fills `*node` and `*consumed`.
size_t TryCompositeIndex(const IndexSpec& spec,
                         const std::vector<const Predicate*>& preds,
                         std::unique_ptr<PlanNode>* node,
                         std::vector<const Predicate*>* consumed) {
  size_t best_score = 0;
  const std::vector<std::string>* best_columns = nullptr;
  std::vector<const Predicate*> best_consumed;
  std::vector<Value> best_eq;
  const Predicate* best_range = nullptr;

  for (const std::vector<std::string>& columns : spec.composite_indexes) {
    std::vector<const Predicate*> used;
    std::vector<Value> eq_values;
    const Predicate* range_pred = nullptr;
    for (const std::string& col : columns) {
      // Leading equality run (leftmost principle).
      const Predicate* eq = nullptr;
      const Predicate* range = nullptr;
      for (const Predicate* p : preds) {
        if (p->column != col) continue;
        if (p->op == PredOp::kEq) eq = p;
        if (IsRangePredOp(p->op) && range == nullptr) range = p;
      }
      if (eq != nullptr) {
        eq_values.push_back(eq->args[0]);
        used.push_back(eq);
        continue;
      }
      if (range != nullptr) {
        range_pred = range;
        used.push_back(range);
      }
      break;  // equality run ended (with or without trailing range)
    }
    const size_t score = used.size();
    if (score > best_score) {
      best_score = score;
      best_columns = &columns;
      best_consumed = std::move(used);
      best_eq = std::move(eq_values);
      best_range = range_pred;
    }
  }
  if (best_score == 0) return 0;

  auto scan = PlanNode::Make(PlanNode::Kind::kCompositeScan);
  scan->index_name = IndexSpec::CompositeName(*best_columns);
  const Value* lo = nullptr;
  const Value* hi = nullptr;
  bool lo_inc = true, hi_inc = true;
  if (best_range != nullptr) {
    switch (best_range->op) {
      case PredOp::kLt:
        hi = &best_range->args[0];
        hi_inc = false;
        break;
      case PredOp::kLe:
        hi = &best_range->args[0];
        break;
      case PredOp::kGt:
        lo = &best_range->args[0];
        lo_inc = false;
        break;
      case PredOp::kGe:
        lo = &best_range->args[0];
        break;
      case PredOp::kBetween:
        lo = &best_range->args[0];
        hi = &best_range->args[1];
        break;
      default:
        break;
    }
  }
  scan->key_range = MakeKeyRange(best_eq, lo, lo_inc, hi, hi_inc);
  scan->eq_prefix_len = int(best_eq.size());
  scan->key_range_eq_only = best_range == nullptr;
  *node = std::move(scan);
  *consumed = std::move(best_consumed);
  return best_score;
}

std::unique_ptr<PlanNode> PlanExpr(const Expr& e, const IndexSpec& spec,
                                   const PlannerOptions& options);

// Plans an AND group: `preds` are the leaf conjuncts, `subplans` the
// plans of non-leaf conjuncts (e.g. nested ORs).
std::unique_ptr<PlanNode> PlanAndGroup(
    std::vector<const Predicate*> preds,
    std::vector<std::unique_ptr<PlanNode>> subplans, const IndexSpec& spec,
    const PlannerOptions& options) {
  std::vector<std::unique_ptr<PlanNode>> nodes = std::move(subplans);
  std::vector<FilterPred> filters;

  // Access path 1: composite index, longest match.
  if (options.use_composite_index) {
    std::unique_ptr<PlanNode> composite;
    std::vector<const Predicate*> consumed;
    if (TryCompositeIndex(spec, preds, &composite, &consumed) > 0) {
      nodes.push_back(std::move(composite));
      preds.erase(std::remove_if(preds.begin(), preds.end(),
                                 [&](const Predicate* p) {
                                   return std::find(consumed.begin(),
                                                    consumed.end(),
                                                    p) != consumed.end();
                                 }),
                  preds.end());
    }
  }

  // Access paths 2 and 3 for the leftover conjuncts.
  std::vector<const Predicate*> deferred_scan;
  for (const Predicate* p : preds) {
    if (options.use_scan_list && spec.IsScanField(p->column)) {
      deferred_scan.push_back(p);
      continue;
    }
    std::unique_ptr<PlanNode> leaf = PlanPredicateLeaf(*p, spec);
    if (leaf->kind == PlanNode::Kind::kFullScan && !leaf->filters.empty()) {
      // Residual predicate: apply as a filter on the other candidates
      // instead of a full scan, when candidates exist.
      for (FilterPred& f : leaf->filters) filters.push_back(std::move(f));
      continue;
    }
    nodes.push_back(std::move(leaf));
  }
  // Scan-list columns filter an existing candidate set; without one,
  // their single-column index is still the better path.
  for (const Predicate* p : deferred_scan) {
    if (nodes.empty()) {
      nodes.push_back(PlanPredicateLeaf(*p, spec));
    } else {
      filters.push_back(FilterPred{*p, false});
    }
  }

  std::unique_ptr<PlanNode> base;
  if (nodes.empty()) {
    base = PlanNode::Make(PlanNode::Kind::kFullScan);
    base->filters = std::move(filters);
    return base;
  }
  if (nodes.size() == 1) {
    base = std::move(nodes[0]);
  } else {
    base = PlanNode::Make(PlanNode::Kind::kIntersect);
    base->children = std::move(nodes);
  }
  if (!filters.empty()) {
    auto filter = PlanNode::Make(PlanNode::Kind::kDocValueFilter);
    filter->filters = std::move(filters);
    filter->children.push_back(std::move(base));
    return filter;
  }
  return base;
}

std::unique_ptr<PlanNode> PlanExpr(const Expr& e, const IndexSpec& spec,
                                   const PlannerOptions& options) {
  switch (e.kind) {
    case Expr::Kind::kPred:
      if (IsConstantFalse(e)) return PlanNode::Make(PlanNode::Kind::kEmpty);
      return PlanAndGroup({&e.pred}, {}, spec, options);
    case Expr::Kind::kAnd: {
      std::vector<const Predicate*> preds;
      std::vector<std::unique_ptr<PlanNode>> subplans;
      for (const auto& c : e.children) {
        if (c->kind == Expr::Kind::kPred) {
          if (IsConstantFalse(*c)) {
            return PlanNode::Make(PlanNode::Kind::kEmpty);
          }
          preds.push_back(&c->pred);
        } else {
          subplans.push_back(PlanExpr(*c, spec, options));
        }
      }
      return PlanAndGroup(std::move(preds), std::move(subplans), spec,
                          options);
    }
    case Expr::Kind::kOr: {
      std::vector<std::unique_ptr<PlanNode>> children;
      for (const auto& c : e.children) {
        auto child = PlanExpr(*c, spec, options);
        if (child->kind == PlanNode::Kind::kEmpty) continue;
        children.push_back(std::move(child));
      }
      if (children.empty()) return PlanNode::Make(PlanNode::Kind::kEmpty);
      if (children.size() == 1) return std::move(children[0]);
      auto node = PlanNode::Make(PlanNode::Kind::kUnion);
      node->children = std::move(children);
      return node;
    }
    case Expr::Kind::kNot: {
      const Expr& child = *e.children[0];
      if (child.kind == Expr::Kind::kPred) {
        return MakeFilterScan(child.pred, /*negated=*/true);
      }
      // Un-normalized NOT over a subtree: push negation down and
      // re-plan (PushDownNot never returns a bare NOT of a non-leaf).
      std::unique_ptr<Expr> nnf = PushDownNot(e.Clone());
      if (nnf->kind == Expr::Kind::kNot) {
        return MakeFilterScan(nnf->children[0]->pred, /*negated=*/true);
      }
      return PlanExpr(*nnf, spec, options);
    }
  }
  return PlanNode::Make(PlanNode::Kind::kFullScan);
}

}  // namespace

void TermBounds(const Predicate& p, std::string* lo, std::string* hi) {
  auto enc = [](const Value& v) { return v.EncodeSortable(); };
  switch (p.op) {
    case PredOp::kLt:
      lo->clear();
      *hi = enc(p.args[0]);
      break;
    case PredOp::kLe:
      lo->clear();
      *hi = enc(p.args[0]) + '\0';
      break;
    case PredOp::kGt:
      *lo = enc(p.args[0]) + '\0';
      hi->assign(1, '\xff');
      break;
    case PredOp::kGe:
      *lo = enc(p.args[0]);
      hi->assign(1, '\xff');
      break;
    case PredOp::kBetween:
      *lo = enc(p.args[0]);
      *hi = enc(p.args[1]) + '\0';
      break;
    default:
      break;
  }
}

std::unique_ptr<PlanNode> PlanWhere(const Expr* where, const IndexSpec& spec,
                                    const PlannerOptions& options) {
  if (where == nullptr) return PlanNode::Make(PlanNode::Kind::kFullScan);
  return PlanExpr(*where, spec, options);
}

}  // namespace esdb
