#include "query/dsl.h"

#include <cctype>
#include <cstdlib>
#include <map>
#include <memory>
#include <variant>
#include <vector>

#include "document/json.h"
#include "query/datetime.h"
#include "query/normalize.h"
#include "query/parser.h"

namespace esdb {

namespace {

// ---------------------------------------------------------------------
// Generic JSON tree (internal to the DSL codec; document JSON stays
// flat by design, but DSL documents nest arbitrarily).

struct JsonNode;
using JsonArray = std::vector<JsonNode>;
using JsonObject = std::vector<std::pair<std::string, JsonNode>>;

struct JsonNode {
  std::variant<std::nullptr_t, bool, int64_t, double, std::string, JsonArray,
               JsonObject>
      data = nullptr;

  bool is_object() const { return std::holds_alternative<JsonObject>(data); }
  bool is_array() const { return std::holds_alternative<JsonArray>(data); }
  bool is_string() const { return std::holds_alternative<std::string>(data); }

  const JsonObject& object() const { return std::get<JsonObject>(data); }
  const JsonArray& array() const { return std::get<JsonArray>(data); }
  const std::string& str() const { return std::get<std::string>(data); }

  const JsonNode* Find(std::string_view key) const {
    if (!is_object()) return nullptr;
    for (const auto& [k, v] : object()) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class TreeParser {
 public:
  explicit TreeParser(std::string_view in) : in_(in) {}

  Result<JsonNode> Parse() {
    JsonNode root;
    ESDB_RETURN_IF_ERROR(ParseValue(&root));
    SkipSpace();
    if (pos_ != in_.size()) {
      return Status::InvalidArgument("dsl: trailing characters");
    }
    return root;
  }

 private:
  Status ParseValue(JsonNode* out) {
    SkipSpace();
    if (pos_ >= in_.size()) return Err("unexpected end");
    const char c = in_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      std::string s;
      ESDB_RETURN_IF_ERROR(ParseString(&s));
      out->data = std::move(s);
      return Status::OK();
    }
    if (in_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      out->data = true;
      return Status::OK();
    }
    if (in_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      out->data = false;
      return Status::OK();
    }
    if (in_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      out->data = nullptr;
      return Status::OK();
    }
    // Number.
    const size_t start = pos_;
    if (c == '-') ++pos_;
    bool is_double = false;
    while (pos_ < in_.size() &&
           (std::isdigit(static_cast<unsigned char>(in_[pos_])) ||
            in_[pos_] == '.' || in_[pos_] == 'e' || in_[pos_] == 'E' ||
            in_[pos_] == '+' || (in_[pos_] == '-' && pos_ != start))) {
      if (in_[pos_] == '.' || in_[pos_] == 'e' || in_[pos_] == 'E') {
        is_double = true;
      }
      ++pos_;
    }
    if (pos_ == start) return Err("bad token");
    const std::string text(in_.substr(start, pos_ - start));
    if (is_double) {
      out->data = std::strtod(text.c_str(), nullptr);
    } else {
      out->data = int64_t(std::strtoll(text.c_str(), nullptr, 10));
    }
    return Status::OK();
  }

  Status ParseObject(JsonNode* out) {
    ++pos_;  // '{'
    JsonObject obj;
    SkipSpace();
    if (Consume('}')) {
      out->data = std::move(obj);
      return Status::OK();
    }
    while (true) {
      SkipSpace();
      std::string key;
      ESDB_RETURN_IF_ERROR(ParseString(&key));
      SkipSpace();
      if (!Consume(':')) return Err("expected ':'");
      JsonNode value;
      ESDB_RETURN_IF_ERROR(ParseValue(&value));
      obj.emplace_back(std::move(key), std::move(value));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume('}')) break;
      return Err("expected ',' or '}'");
    }
    out->data = std::move(obj);
    return Status::OK();
  }

  Status ParseArray(JsonNode* out) {
    ++pos_;  // '['
    JsonArray arr;
    SkipSpace();
    if (Consume(']')) {
      out->data = std::move(arr);
      return Status::OK();
    }
    while (true) {
      JsonNode value;
      ESDB_RETURN_IF_ERROR(ParseValue(&value));
      arr.push_back(std::move(value));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume(']')) break;
      return Err("expected ',' or ']'");
    }
    out->data = std::move(arr);
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Err("expected string");
    out->clear();
    while (pos_ < in_.size()) {
      const char c = in_[pos_++];
      if (c == '"') return Status::OK();
      if (c == '\\') {
        if (pos_ >= in_.size()) return Err("bad escape");
        const char esc = in_[pos_++];
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'r': out->push_back('\r'); break;
          default: return Err("unsupported escape");
        }
      } else {
        out->push_back(c);
      }
    }
    return Err("unterminated string");
  }

  void SkipSpace() {
    while (pos_ < in_.size() &&
           std::isspace(static_cast<unsigned char>(in_[pos_]))) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    if (pos_ < in_.size() && in_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status Err(const char* msg) {
    return Status::InvalidArgument(std::string("dsl: ") + msg);
  }

  std::string_view in_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------
// Rendering: Query -> DSL text.

// Appends `s` as a quoted JSON string. Built by appends: GCC 12's
// -Wrestrict misfires at -O3 on `"\"" + JsonEscape(s) + "\""`.
void AppendJsonString(std::string_view s, std::string* out) {
  out->push_back('"');
  out->append(JsonEscape(s));
  out->push_back('"');
}

void AppendJsonValue(const Value& v, std::string* out) {
  if (v.is_string()) {
    AppendJsonString(v.as_string(), out);
  } else {
    *out += v.ToString();
  }
}

std::string LikeToWildcard(std::string_view like) {
  std::string out;
  for (char c : like) {
    if (c == '%') {
      out.push_back('*');
    } else if (c == '_') {
      out.push_back('?');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string WildcardToLike(std::string_view wildcard) {
  std::string out;
  for (char c : wildcard) {
    if (c == '*') {
      out.push_back('%');
    } else if (c == '?') {
      out.push_back('_');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

void RenderPredicate(const Predicate& p, std::string* out) {
  std::string col;
  AppendJsonString(p.column, &col);
  switch (p.op) {
    case PredOp::kEq:
      *out += "{\"term\": {" + col + ": ";
      AppendJsonValue(p.args[0], out);
      *out += "}}";
      return;
    case PredOp::kIn: {
      *out += "{\"terms\": {" + col + ": [";
      for (size_t i = 0; i < p.args.size(); ++i) {
        if (i > 0) *out += ", ";
        AppendJsonValue(p.args[i], out);
      }
      *out += "]}}";
      return;
    }
    case PredOp::kNe:
      // SQL != is null-rejecting: must exist AND not match the value.
      *out += "{\"bool\": {\"must\": [{\"exists\": {\"field\": " + col +
              "}}], \"must_not\": [{\"term\": {" + col + ": ";
      AppendJsonValue(p.args[0], out);
      *out += "}}]}}";
      return;
    case PredOp::kLt:
    case PredOp::kLe:
    case PredOp::kGt:
    case PredOp::kGe: {
      const char* bound = p.op == PredOp::kLt   ? "lt"
                          : p.op == PredOp::kLe ? "lte"
                          : p.op == PredOp::kGt ? "gt"
                                                : "gte";
      *out += "{\"range\": {" + col + ": {\"" + bound + "\": ";
      AppendJsonValue(p.args[0], out);
      *out += "}}}";
      return;
    }
    case PredOp::kBetween:
      *out += "{\"range\": {" + col + ": {\"gte\": ";
      AppendJsonValue(p.args[0], out);
      *out += ", \"lte\": ";
      AppendJsonValue(p.args[1], out);
      *out += "}}}";
      return;
    case PredOp::kLike:
      *out += "{\"wildcard\": {" + col + ": \"" +
              JsonEscape(LikeToWildcard(p.args[0].as_string())) + "\"}}";
      return;
    case PredOp::kMatch:
      *out += "{\"match\": {" + col + ": \"" +
              JsonEscape(p.args[0].as_string()) + "\"}}";
      return;
    case PredOp::kIsNull:
      *out += "{\"bool\": {\"must_not\": [{\"exists\": {\"field\": " + col +
              "}}]}}";
      return;
    case PredOp::kIsNotNull:
      *out += "{\"exists\": {\"field\": " + col + "}}";
      return;
  }
}

void RenderExpr(const Expr& e, std::string* out) {
  switch (e.kind) {
    case Expr::Kind::kPred:
      RenderPredicate(e.pred, out);
      return;
    case Expr::Kind::kNot:
      *out += "{\"bool\": {\"must_not\": [";
      RenderExpr(*e.children[0], out);
      *out += "]}}";
      return;
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr: {
      *out += e.kind == Expr::Kind::kAnd ? "{\"bool\": {\"must\": ["
                                         : "{\"bool\": {\"should\": [";
      for (size_t i = 0; i < e.children.size(); ++i) {
        if (i > 0) *out += ", ";
        RenderExpr(*e.children[i], out);
      }
      *out += "]}}";
      return;
    }
  }
}

// ---------------------------------------------------------------------
// Parsing: DSL tree -> Expr / Query.

Result<Value> NodeToValue(const JsonNode& node) {
  if (std::holds_alternative<std::string>(node.data)) {
    // Date-looking strings become timestamps, matching the SQL path.
    Micros micros = 0;
    if (ParseDateTime(node.str(), &micros)) return Value(int64_t(micros));
    return Value(node.str());
  }
  if (std::holds_alternative<int64_t>(node.data)) {
    return Value(std::get<int64_t>(node.data));
  }
  if (std::holds_alternative<double>(node.data)) {
    return Value(std::get<double>(node.data));
  }
  if (std::holds_alternative<bool>(node.data)) {
    return Value(std::get<bool>(node.data));
  }
  if (std::holds_alternative<std::nullptr_t>(node.data)) {
    return Value::Null();
  }
  return Status::InvalidArgument("dsl: expected a scalar value");
}

Result<std::unique_ptr<Expr>> ClauseToExpr(const JsonNode& clause);

Result<std::unique_ptr<Expr>> BoolToExpr(const JsonNode& body) {
  std::vector<std::unique_ptr<Expr>> conjuncts;

  if (const JsonNode* must = body.Find("must")) {
    if (!must->is_array()) {
      return Status::InvalidArgument("dsl: bool.must must be an array");
    }
    for (const JsonNode& c : must->array()) {
      ESDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> e, ClauseToExpr(c));
      conjuncts.push_back(std::move(e));
    }
  }
  if (const JsonNode* should = body.Find("should")) {
    if (!should->is_array()) {
      return Status::InvalidArgument("dsl: bool.should must be an array");
    }
    std::vector<std::unique_ptr<Expr>> disjuncts;
    for (const JsonNode& c : should->array()) {
      ESDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> e, ClauseToExpr(c));
      disjuncts.push_back(std::move(e));
    }
    if (!disjuncts.empty()) {
      conjuncts.push_back(Expr::MakeOr(std::move(disjuncts)));
    }
  }
  if (const JsonNode* must_not = body.Find("must_not")) {
    if (!must_not->is_array()) {
      return Status::InvalidArgument("dsl: bool.must_not must be an array");
    }
    for (const JsonNode& c : must_not->array()) {
      ESDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> e, ClauseToExpr(c));
      conjuncts.push_back(Expr::MakeNot(std::move(e)));
    }
  }
  if (conjuncts.empty()) {
    return Status::InvalidArgument("dsl: empty bool clause");
  }
  return Expr::MakeAnd(std::move(conjuncts));
}

Result<std::unique_ptr<Expr>> ClauseToExpr(const JsonNode& clause) {
  if (!clause.is_object() || clause.object().size() != 1) {
    return Status::InvalidArgument("dsl: clause must be a 1-key object");
  }
  const auto& [kind, body] = clause.object()[0];

  if (kind == "match_all") {
    // Tautology: encoded as an empty AND is not representable, so use
    // a predicate that always holds -> "record exists" is not general
    // either; callers treat a null where as match_all, so reject here.
    return Status::InvalidArgument(
        "dsl: match_all is only valid at the top level");
  }
  if (kind == "bool") return BoolToExpr(body);
  if (kind == "exists") {
    const JsonNode* field = body.Find("field");
    if (field == nullptr || !field->is_string()) {
      return Status::InvalidArgument("dsl: exists needs a field");
    }
    Predicate p;
    p.column = field->str();
    p.op = PredOp::kIsNotNull;
    return Expr::MakePred(std::move(p));
  }

  // Remaining kinds share the {col: <body>} shape.
  if (!body.is_object() || body.object().size() != 1) {
    return Status::InvalidArgument("dsl: " + kind +
                                   " expects a single column");
  }
  const auto& [column, arg] = body.object()[0];
  Predicate p;
  p.column = column;

  if (kind == "term") {
    p.op = PredOp::kEq;
    ESDB_ASSIGN_OR_RETURN(Value v, NodeToValue(arg));
    p.args.push_back(std::move(v));
    return Expr::MakePred(std::move(p));
  }
  if (kind == "terms") {
    if (!arg.is_array()) {
      return Status::InvalidArgument("dsl: terms expects an array");
    }
    p.op = PredOp::kIn;
    for (const JsonNode& item : arg.array()) {
      ESDB_ASSIGN_OR_RETURN(Value v, NodeToValue(item));
      p.args.push_back(std::move(v));
    }
    return Expr::MakePred(std::move(p));
  }
  if (kind == "match") {
    if (!arg.is_string()) {
      return Status::InvalidArgument("dsl: match expects text");
    }
    p.op = PredOp::kMatch;
    p.args.push_back(Value(arg.str()));
    return Expr::MakePred(std::move(p));
  }
  if (kind == "wildcard") {
    if (!arg.is_string()) {
      return Status::InvalidArgument("dsl: wildcard expects a pattern");
    }
    p.op = PredOp::kLike;
    p.args.push_back(Value(WildcardToLike(arg.str())));
    return Expr::MakePred(std::move(p));
  }
  if (kind == "range") {
    if (!arg.is_object()) {
      return Status::InvalidArgument("dsl: range expects bounds");
    }
    std::vector<std::unique_ptr<Expr>> bounds;
    for (const auto& [bound, value] : arg.object()) {
      Predicate bp;
      bp.column = column;
      if (bound == "gte") {
        bp.op = PredOp::kGe;
      } else if (bound == "gt") {
        bp.op = PredOp::kGt;
      } else if (bound == "lte") {
        bp.op = PredOp::kLe;
      } else if (bound == "lt") {
        bp.op = PredOp::kLt;
      } else {
        return Status::InvalidArgument("dsl: unknown range bound " + bound);
      }
      ESDB_ASSIGN_OR_RETURN(Value v, NodeToValue(value));
      bp.args.push_back(std::move(v));
      bounds.push_back(Expr::MakePred(std::move(bp)));
    }
    if (bounds.empty()) {
      return Status::InvalidArgument("dsl: empty range");
    }
    return Expr::MakeAnd(std::move(bounds));
  }
  return Status::InvalidArgument("dsl: unknown clause kind " + kind);
}

}  // namespace

std::string QueryToDsl(const Query& query) {
  std::string out = "{\"query\": ";
  if (query.where == nullptr) {
    out += "{\"match_all\": {}}";
  } else {
    RenderExpr(*query.where, &out);
  }
  if (query.agg != AggFunc::kNone) {
    out += ", \"aggs\": {\"agg\": {";
    switch (query.agg) {
      case AggFunc::kCount: out += "\"count\": {"; break;
      case AggFunc::kSum: out += "\"sum\": {"; break;
      case AggFunc::kAvg: out += "\"avg\": {"; break;
      case AggFunc::kMin: out += "\"min\": {"; break;
      case AggFunc::kMax: out += "\"max\": {"; break;
      case AggFunc::kNone: break;
    }
    if (!query.agg_column.empty()) {
      out += "\"field\": ";
      AppendJsonString(query.agg_column, &out);
    }
    out += "}}}";
  }
  if (!query.select_columns.empty()) {
    out += ", \"_source\": [";
    for (size_t i = 0; i < query.select_columns.size(); ++i) {
      if (i > 0) out += ", ";
      AppendJsonString(query.select_columns[i], &out);
    }
    out += "]";
  }
  if (!query.order_by.empty()) {
    out += ", \"sort\": [";
    for (size_t i = 0; i < query.order_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += "{";
      AppendJsonString(query.order_by[i].column, &out);
      out += query.order_by[i].descending ? ": \"desc\"}" : ": \"asc\"}";
    }
    out += "]";
  }
  if (query.limit >= 0) {
    out += ", \"size\": " + std::to_string(query.limit);
  }
  if (query.offset > 0) {
    out += ", \"from\": " + std::to_string(query.offset);
  }
  out += "}";
  return out;
}

Result<Query> ParseDsl(std::string_view dsl) {
  ESDB_ASSIGN_OR_RETURN(JsonNode root, TreeParser(dsl).Parse());
  if (!root.is_object()) {
    return Status::InvalidArgument("dsl: top level must be an object");
  }
  Query query;
  query.table = "_all";

  const JsonNode* q = root.Find("query");
  if (q == nullptr) {
    return Status::InvalidArgument("dsl: missing \"query\"");
  }
  const bool is_match_all =
      q->is_object() && q->object().size() == 1 &&
      q->object()[0].first == "match_all";
  if (!is_match_all) {
    ESDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> where, ClauseToExpr(*q));
    query.where = std::move(where);
  }

  if (const JsonNode* aggs = root.Find("aggs")) {
    if (!aggs->is_object() || aggs->object().size() != 1) {
      return Status::InvalidArgument("dsl: aggs must hold one aggregation");
    }
    const JsonNode& agg_body = aggs->object()[0].second;
    if (!agg_body.is_object() || agg_body.object().size() != 1) {
      return Status::InvalidArgument("dsl: bad aggregation body");
    }
    const auto& [func, params] = agg_body.object()[0];
    if (func == "count") {
      query.agg = AggFunc::kCount;
    } else if (func == "sum") {
      query.agg = AggFunc::kSum;
    } else if (func == "avg") {
      query.agg = AggFunc::kAvg;
    } else if (func == "min") {
      query.agg = AggFunc::kMin;
    } else if (func == "max") {
      query.agg = AggFunc::kMax;
    } else {
      return Status::InvalidArgument("dsl: unknown aggregation " + func);
    }
    if (const JsonNode* field = params.Find("field")) {
      if (!field->is_string()) {
        return Status::InvalidArgument("dsl: aggregation field");
      }
      query.agg_column = field->str();
    }
  }

  if (const JsonNode* source = root.Find("_source")) {
    if (!source->is_array()) {
      return Status::InvalidArgument("dsl: _source must be an array");
    }
    for (const JsonNode& col : source->array()) {
      if (!col.is_string()) {
        return Status::InvalidArgument("dsl: _source entries are strings");
      }
      query.select_columns.push_back(col.str());
    }
  }

  if (const JsonNode* sort = root.Find("sort")) {
    if (!sort->is_array()) {
      return Status::InvalidArgument("dsl: sort must be an array");
    }
    for (const JsonNode& entry : sort->array()) {
      if (!entry.is_object() || entry.object().size() != 1) {
        return Status::InvalidArgument("dsl: sort entries are 1-key objects");
      }
      const auto& [column, dir] = entry.object()[0];
      OrderBy ob;
      ob.column = column;
      if (dir.is_string() && dir.str() == "desc") {
        ob.descending = true;
      } else if (!dir.is_string() ||
                 (dir.str() != "asc" && dir.str() != "desc")) {
        return Status::InvalidArgument("dsl: sort direction");
      }
      query.order_by.push_back(std::move(ob));
    }
  }

  if (const JsonNode* size = root.Find("size")) {
    if (!std::holds_alternative<int64_t>(size->data)) {
      return Status::InvalidArgument("dsl: size must be an integer");
    }
    query.limit = std::get<int64_t>(size->data);
  }
  if (const JsonNode* from = root.Find("from")) {
    if (!std::holds_alternative<int64_t>(from->data) ||
        std::get<int64_t>(from->data) < 0) {
      return Status::InvalidArgument(
          "dsl: from must be a non-negative integer");
    }
    query.offset = std::get<int64_t>(from->data);
  }
  return query;
}

Result<std::string> SqlToDsl(std::string_view sql) {
  ESDB_ASSIGN_OR_RETURN(Query query, ParseSql(sql));
  // Xdriver4ES's rewrites (Section 3.1): CNF to reduce AST depth,
  // predicate merge to reduce AST width, before emitting the DSL.
  if (query.where != nullptr) {
    query.where = MergePredicates(ToCnf(std::move(query.where)));
  }
  return QueryToDsl(query);
}

}  // namespace esdb
