#include "query/plan.h"

namespace esdb {

std::unique_ptr<PlanNode> PlanNode::Make(Kind kind) {
  auto node = std::make_unique<PlanNode>();
  node->kind = kind;
  return node;
}

std::string PlanNode::ToString(int indent) const {
  std::string pad(size_t(indent) * 2, ' ');
  std::string out = pad;
  switch (kind) {
    case Kind::kEmpty:
      out += "Empty";
      break;
    case Kind::kFullScan:
      out += "FullScan";
      break;
    case Kind::kTermLookup:
      out += "IndexSearch " + field + " (" + std::to_string(terms.size()) +
             " terms)";
      break;
    case Kind::kTermRange:
      out += "IndexRangeSearch " + field;
      break;
    case Kind::kCompositeScan:
      out += "CompositeIndexScan " + index_name;
      break;
    case Kind::kDocValueFilter: {
      out += "DocValueScan [";
      for (size_t i = 0; i < filters.size(); ++i) {
        if (i > 0) out += ", ";
        if (filters[i].negated) out += "NOT ";
        out += filters[i].pred.ToString();
      }
      out += "]";
      break;
    }
    case Kind::kIntersect:
      out += "Intersect";
      break;
    case Kind::kUnion:
      out += "Union";
      break;
    case Kind::kIndexTopK: {
      out += "IndexTopK " + index_name + " (cap=" + std::to_string(topk_cap) +
             (topk_reverse ? " desc" : " asc") + ")";
      for (size_t i = 0; i < filters.size(); ++i) {
        out += i == 0 ? " [" : ", ";
        if (filters[i].negated) out += "NOT ";
        out += filters[i].pred.ToString();
      }
      if (!filters.empty()) out += "]";
      break;
    }
    case Kind::kStatsOnly:
      out += "StatsOnly";
      if (!index_name.empty()) out += " via " + index_name;
      break;
  }
  if (!filters.empty() && kind == Kind::kFullScan) {
    out += " filtered";
  }
  for (const auto& c : children) {
    out += '\n';
    out += c->ToString(indent + 1);
  }
  return out;
}

}  // namespace esdb
