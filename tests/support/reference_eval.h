// Reference query evaluation over decoded documents: WHERE walks the
// AST and applies Predicate::Eval to the document's own field values,
// and aggregates fold per document. Nothing here consults an index,
// plan, segment, doc-value column or slot, so a result checked against
// it is checked against the stored data alone.

#ifndef ESDB_TESTS_SUPPORT_REFERENCE_EVAL_H_
#define ESDB_TESTS_SUPPORT_REFERENCE_EVAL_H_

#include <optional>
#include <string>

#include "document/document.h"
#include "query/ast.h"
#include "query/executor.h"  // QueryResult, GroupStats (types only)

namespace esdb {

// The value `column` names in `doc`. "attributes.<key>" names one
// sub-attribute of the encoded attributes string, re-parsed here.
inline Value ReferenceFieldValue(const Document& doc,
                                 const std::string& column) {
  const size_t dot = column.find('.');
  if (dot == std::string::npos ||
      column.compare(0, dot, kFieldAttributes) != 0) {
    return doc.Get(column);
  }
  const Value& attrs = doc.Get(kFieldAttributes);
  if (!attrs.is_string()) return Value::Null();
  const auto parsed = ParseAttributes(attrs.as_string());
  const auto it = parsed.find(column.substr(dot + 1));
  return it == parsed.end() ? Value::Null() : Value(it->second);
}

inline bool EvalWhereOnDocument(const Expr& e, const Document& doc) {
  switch (e.kind) {
    case Expr::Kind::kPred:
      return e.pred.Eval(ReferenceFieldValue(doc, e.pred.column));
    case Expr::Kind::kNot:
      return !EvalWhereOnDocument(*e.children[0], doc);
    case Expr::Kind::kAnd:
      for (const auto& c : e.children) {
        if (!EvalWhereOnDocument(*c, doc)) return false;
      }
      return true;
    case Expr::Kind::kOr:
      for (const auto& c : e.children) {
        if (EvalWhereOnDocument(*c, doc)) return true;
      }
      return false;
  }
  return false;
}

// ORDER BY on decoded documents; a stable sort keeps ties in input
// order.
inline bool ReferenceOrderLess(const Query& query, const Document& a,
                               const Document& b) {
  for (const OrderBy& ob : query.order_by) {
    const int c = ReferenceFieldValue(a, ob.column)
                      .Compare(ReferenceFieldValue(b, ob.column));
    if (c != 0) return ob.descending ? c > 0 : c < 0;
  }
  return false;
}

// Strict-compare min/max: the first doc-order occurrence of a
// compare-equal extremum is kept.
inline void ReferenceFoldMin(const Value& v, std::optional<Value>* min) {
  if (!*min || v.Compare(**min) < 0) *min = v;
}
inline void ReferenceFoldMax(const Value& v, std::optional<Value>* max) {
  if (!*max || v.Compare(**max) > 0) *max = v;
}

// Folds one document that WHERE accepted into `shard`, in doc order:
// the match count, then COUNT/SUM/MIN/MAX/AVG or the GROUP BY group of
// its key. Only the requested aggregate's accumulator fills, and only
// numeric values add to sums.
inline void ReferenceFoldDocument(const Query& query, const Document& doc,
                                  QueryResult* shard) {
  ++shard->total_matched;
  const Value v = ReferenceFieldValue(doc, query.agg_column);
  const bool has_value = query.agg != AggFunc::kCount && !v.is_null();
  if (!query.group_by.empty()) {
    GroupStats& group =
        shard->groups[ReferenceFieldValue(doc, query.group_by)];
    ++group.count;
    if (has_value) {
      if (v.is_numeric()) group.sum += v.NumericValue();
      ReferenceFoldMin(v, &group.min);
      ReferenceFoldMax(v, &group.max);
    }
    return;
  }
  ++shard->agg_count;
  if (!has_value) return;
  if (query.agg == AggFunc::kMin) ReferenceFoldMin(v, &shard->agg_min);
  if (query.agg == AggFunc::kMax) ReferenceFoldMax(v, &shard->agg_max);
  if ((query.agg == AggFunc::kSum || query.agg == AggFunc::kAvg) &&
      v.is_numeric()) {
    shard->agg_sum += v.NumericValue();
  }
}

// Merges one shard's folded answer into `merged`; shards merge in
// fan-out order, as the coordinator merges them.
inline void ReferenceMergeShard(const QueryResult& shard,
                                QueryResult* merged) {
  merged->total_matched += shard.total_matched;
  merged->agg_count += shard.agg_count;
  merged->agg_sum += shard.agg_sum;
  if (shard.agg_min) ReferenceFoldMin(*shard.agg_min, &merged->agg_min);
  if (shard.agg_max) ReferenceFoldMax(*shard.agg_max, &merged->agg_max);
  for (const auto& [key, group] : shard.groups) {
    GroupStats& into = merged->groups[key];
    into.count += group.count;
    into.sum += group.sum;
    if (group.min) ReferenceFoldMin(*group.min, &into.min);
    if (group.max) ReferenceFoldMax(*group.max, &into.max);
  }
}

}  // namespace esdb

#endif  // ESDB_TESTS_SUPPORT_REFERENCE_EVAL_H_
