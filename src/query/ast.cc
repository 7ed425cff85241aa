#include "query/ast.h"

#include <cassert>

#include "common/strings.h"
#include "storage/analyzer.h"

namespace esdb {

const char* PredOpName(PredOp op) {
  switch (op) {
    case PredOp::kEq: return "=";
    case PredOp::kNe: return "!=";
    case PredOp::kLt: return "<";
    case PredOp::kLe: return "<=";
    case PredOp::kGt: return ">";
    case PredOp::kGe: return ">=";
    case PredOp::kBetween: return "BETWEEN";
    case PredOp::kIn: return "IN";
    case PredOp::kLike: return "LIKE";
    case PredOp::kMatch: return "MATCH";
    case PredOp::kIsNull: return "IS NULL";
    case PredOp::kIsNotNull: return "IS NOT NULL";
  }
  return "?";
}

std::string Predicate::ToString() const {
  std::string out = column;
  out.push_back(' ');
  out += PredOpName(op);
  if (op == PredOp::kIsNull || op == PredOp::kIsNotNull) return out;
  out.push_back(' ');
  if (op == PredOp::kIn) {
    out.push_back('(');
    for (size_t i = 0; i < args.size(); ++i) {
      if (i > 0) out += ", ";
      out += args[i].ToString();
    }
    out.push_back(')');
  } else if (op == PredOp::kBetween) {
    out += args[0].ToString() + " AND " + args[1].ToString();
  } else {
    out += args.empty() ? "?" : args[0].ToString();
  }
  return out;
}

bool Predicate::Eval(const Value& v) const {
  switch (op) {
    case PredOp::kEq:
      return !v.is_null() && v.Compare(args[0]) == 0;
    case PredOp::kNe:
      return !v.is_null() && v.Compare(args[0]) != 0;
    case PredOp::kLt:
      return !v.is_null() && v.Compare(args[0]) < 0;
    case PredOp::kLe:
      return !v.is_null() && v.Compare(args[0]) <= 0;
    case PredOp::kGt:
      return !v.is_null() && v.Compare(args[0]) > 0;
    case PredOp::kGe:
      return !v.is_null() && v.Compare(args[0]) >= 0;
    case PredOp::kBetween:
      return !v.is_null() && v.Compare(args[0]) >= 0 &&
             v.Compare(args[1]) <= 0;
    case PredOp::kIn:
      if (v.is_null()) return false;
      for (const Value& a : args) {
        if (v.Compare(a) == 0) return true;
      }
      return false;
    case PredOp::kLike:
      return v.is_string() && args[0].is_string() &&
             LikeMatch(v.as_string(), args[0].as_string());
    case PredOp::kMatch: {
      if (!v.is_string() || !args[0].is_string()) return false;
      // All query tokens must appear in the analyzed text.
      const std::vector<std::string> doc_tokens = Tokenize(v.as_string());
      for (const std::string& q : Tokenize(args[0].as_string())) {
        bool found = false;
        for (const std::string& t : doc_tokens) {
          if (t == q) {
            found = true;
            break;
          }
        }
        if (!found) return false;
      }
      return true;
    }
    case PredOp::kIsNull:
      return v.is_null();
    case PredOp::kIsNotNull:
      return !v.is_null();
  }
  return false;
}

Predicate Predicate::Negate(bool* ok) const {
  // Null semantics: every positive predicate fails on a missing/null
  // column (v.is_null() above), so e.g. `d < 2` is NOT the complement
  // of `d >= 2` — both are false on null. NOT therefore has complement
  // semantics (it matches docs missing the column, like
  // Elasticsearch's must_not) and only IS NULL / IS NOT NULL, which
  // are exact complements, fold into the leaf. Everything else keeps a
  // structural NOT wrapper evaluated as a negated filter.
  *ok = true;
  Predicate out = *this;
  switch (op) {
    case PredOp::kIsNull: out.op = PredOp::kIsNotNull; return out;
    case PredOp::kIsNotNull: out.op = PredOp::kIsNull; return out;
    default:
      *ok = false;
      return out;
  }
}

std::unique_ptr<Expr> Expr::MakePred(Predicate p) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kPred;
  e->pred = std::move(p);
  return e;
}

std::unique_ptr<Expr> Expr::MakeAnd(std::vector<std::unique_ptr<Expr>> cs) {
  assert(!cs.empty());
  if (cs.size() == 1) return std::move(cs[0]);
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kAnd;
  e->children = std::move(cs);
  return e;
}

std::unique_ptr<Expr> Expr::MakeOr(std::vector<std::unique_ptr<Expr>> cs) {
  assert(!cs.empty());
  if (cs.size() == 1) return std::move(cs[0]);
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kOr;
  e->children = std::move(cs);
  return e;
}

std::unique_ptr<Expr> Expr::MakeNot(std::unique_ptr<Expr> child) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kNot;
  e->children.push_back(std::move(child));
  return e;
}

std::unique_ptr<Expr> Expr::Clone() const {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->pred = pred;
  e->children.reserve(children.size());
  for (const auto& c : children) e->children.push_back(c->Clone());
  return e;
}

std::string Expr::ToString() const {
  switch (kind) {
    case Kind::kPred:
      return pred.ToString();
    case Kind::kNot:
      return "NOT (" + children[0]->ToString() + ")";
    case Kind::kAnd:
    case Kind::kOr: {
      const char* sep = kind == Kind::kAnd ? " AND " : " OR ";
      std::string out = "(";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += sep;
        out += children[i]->ToString();
      }
      out.push_back(')');
      return out;
    }
  }
  return "";
}

size_t Expr::NodeCount() const {
  size_t n = 1;
  for (const auto& c : children) n += c->NodeCount();
  return n;
}

size_t Expr::Depth() const {
  size_t d = 0;
  for (const auto& c : children) d = std::max(d, c->Depth());
  return d + 1;
}

std::string Query::ToString() const {
  // Plain columns first (with an aggregate, only the GROUP BY column
  // parses), then the aggregate.
  std::vector<std::string> items = select_columns;
  switch (agg) {
    case AggFunc::kNone: break;
    case AggFunc::kCount: items.push_back("COUNT(*)"); break;
    case AggFunc::kSum: items.push_back("SUM(" + agg_column + ")"); break;
    case AggFunc::kAvg: items.push_back("AVG(" + agg_column + ")"); break;
    case AggFunc::kMin: items.push_back("MIN(" + agg_column + ")"); break;
    case AggFunc::kMax: items.push_back("MAX(" + agg_column + ")"); break;
  }
  std::string out = "SELECT " + (items.empty() ? "*" : StrJoin(items, ", "));
  out += " FROM " + table;
  if (where != nullptr) out += " WHERE " + where->ToString();
  if (!group_by.empty()) out += " GROUP BY " + group_by;
  if (!order_by.empty()) {
    out += " ORDER BY ";
    for (size_t i = 0; i < order_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += order_by[i].column;
      if (order_by[i].descending) out += " DESC";
    }
  }
  if (limit >= 0) out += " LIMIT " + std::to_string(limit);
  if (offset > 0) out += " OFFSET " + std::to_string(offset);
  return out;
}

std::string DmlStatement::ToString() const {
  std::string out;
  if (kind == Kind::kInsert) {
    out = "INSERT INTO " + table + " ";
    // Columns from the first row (all rows share the column list).
    if (!rows.empty()) {
      out += "(";
      bool first = true;
      for (const auto& [name, value] : rows[0].fields()) {
        if (!first) out += ", ";
        first = false;
        out += name;
      }
      out += ") VALUES ";
      for (size_t r = 0; r < rows.size(); ++r) {
        if (r > 0) out += ", ";
        out += "(";
        bool first_value = true;
        for (const auto& [name, value] : rows[r].fields()) {
          if (!first_value) out += ", ";
          first_value = false;
          if (value.is_string()) {
            out += "'" + value.as_string() + "'";
          } else {
            out += value.ToString();
          }
        }
        out += ")";
      }
    }
    return out;
  }
  if (kind == Kind::kDelete) {
    out = "DELETE FROM " + table;
  } else {
    out = "UPDATE " + table + " SET ";
    for (size_t i = 0; i < set.size(); ++i) {
      if (i > 0) out += ", ";
      out += set[i].first + " = " + set[i].second.ToString();
    }
  }
  if (where != nullptr) out += " WHERE " + where->ToString();
  return out;
}

}  // namespace esdb
