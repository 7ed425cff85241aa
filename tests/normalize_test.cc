#include <gtest/gtest.h>

#include "common/random.h"
#include "document/document.h"
#include "query/normalize.h"
#include "query/parser.h"
#include "support/reference_eval.h"

namespace esdb {
namespace {

std::unique_ptr<Expr> ParseWhere(std::string_view where_clause) {
  auto q = ParseSql(std::string("SELECT * FROM t WHERE ") +
                    std::string(where_clause));
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return std::move(q.value().where);
}

Document RandomDoc(Rng& rng) {
  Document doc;
  doc.Set("a", Value(int64_t(rng.Uniform(5))));
  doc.Set("b", Value(int64_t(rng.Uniform(5))));
  doc.Set("c", Value(int64_t(rng.Uniform(5))));
  if (rng.Bernoulli(0.3)) doc.Set("d", Value(int64_t(rng.Uniform(5))));
  return doc;
}

std::unique_ptr<Expr> RandomExpr(Rng& rng, int depth) {
  if (depth == 0 || rng.Bernoulli(0.4)) {
    Predicate p;
    const char* cols[] = {"a", "b", "c", "d"};
    p.column = cols[rng.Uniform(4)];
    switch (rng.Uniform(6)) {
      case 0: p.op = PredOp::kEq; break;
      case 1: p.op = PredOp::kNe; break;
      case 2: p.op = PredOp::kLt; break;
      case 3: p.op = PredOp::kGe; break;
      case 4: p.op = PredOp::kIsNull; break;
      default: p.op = PredOp::kBetween; break;
    }
    if (p.op == PredOp::kBetween) {
      const int64_t lo = int64_t(rng.Uniform(5));
      p.args = {Value(lo), Value(lo + int64_t(rng.Uniform(3)))};
    } else if (p.op != PredOp::kIsNull) {
      p.args = {Value(int64_t(rng.Uniform(5)))};
    }
    return Expr::MakePred(std::move(p));
  }
  switch (rng.Uniform(3)) {
    case 0:
      return Expr::MakeNot(RandomExpr(rng, depth - 1));
    case 1: {
      std::vector<std::unique_ptr<Expr>> cs;
      const size_t n = 2 + rng.Uniform(2);
      for (size_t i = 0; i < n; ++i) cs.push_back(RandomExpr(rng, depth - 1));
      return Expr::MakeAnd(std::move(cs));
    }
    default: {
      std::vector<std::unique_ptr<Expr>> cs;
      const size_t n = 2 + rng.Uniform(2);
      for (size_t i = 0; i < n; ++i) cs.push_back(RandomExpr(rng, depth - 1));
      return Expr::MakeOr(std::move(cs));
    }
  }
}

// True if e contains a NOT over a non-leaf.
bool HasStructuralNot(const Expr& e) {
  if (e.kind == Expr::Kind::kNot &&
      e.children[0]->kind != Expr::Kind::kPred) {
    return true;
  }
  for (const auto& c : e.children) {
    if (HasStructuralNot(*c)) return true;
  }
  return false;
}

bool IsCnfShape(const Expr& e) {
  // Literal, OR of literals, or AND of (literal | OR of literals).
  auto is_literal = [](const Expr& x) {
    return x.kind == Expr::Kind::kPred ||
           (x.kind == Expr::Kind::kNot &&
            x.children[0]->kind == Expr::Kind::kPred);
  };
  auto is_clause = [&](const Expr& x) {
    if (is_literal(x)) return true;
    if (x.kind != Expr::Kind::kOr) return false;
    for (const auto& c : x.children) {
      if (!is_literal(*c)) return false;
    }
    return true;
  };
  if (is_clause(e)) return true;
  if (e.kind != Expr::Kind::kAnd) return false;
  for (const auto& c : e.children) {
    if (!is_clause(*c)) return false;
  }
  return true;
}

// --- PushDownNot -------------------------------------------------------

TEST(PushDownNotTest, DeMorgan) {
  auto e = PushDownNot(ParseWhere("NOT (a = 1 AND b = 2)"));
  EXPECT_EQ(e->kind, Expr::Kind::kOr);
  // Comparison predicates have no exact complement under null
  // semantics, so the literal stays NOT(a = 1).
  EXPECT_EQ(e->children[0]->kind, Expr::Kind::kNot);
  EXPECT_EQ(e->children[0]->children[0]->pred.op, PredOp::kEq);
}

TEST(PushDownNotTest, IsNullFoldsIntoLeaf) {
  auto e = PushDownNot(ParseWhere("NOT (a IS NULL AND b IS NOT NULL)"));
  EXPECT_EQ(e->kind, Expr::Kind::kOr);
  EXPECT_EQ(e->children[0]->pred.op, PredOp::kIsNotNull);
  EXPECT_EQ(e->children[1]->pred.op, PredOp::kIsNull);
}

TEST(PushDownNotTest, DoubleNegationCancels) {
  auto e = PushDownNot(ParseWhere("NOT (NOT (a = 1))"));
  EXPECT_EQ(e->kind, Expr::Kind::kPred);
  EXPECT_EQ(e->pred.op, PredOp::kEq);
}

TEST(PushDownNotTest, NonNegatableLeafKeepsNot) {
  auto e = PushDownNot(ParseWhere("NOT (name LIKE 'x%')"));
  EXPECT_EQ(e->kind, Expr::Kind::kNot);
  EXPECT_EQ(e->children[0]->pred.op, PredOp::kLike);
}

// Property: NNF is semantically equivalent and NOT-free above leaves.
TEST(PushDownNotProperty, EquivalentAndNormalized) {
  Rng rng(101);
  for (int trial = 0; trial < 300; ++trial) {
    auto original = RandomExpr(rng, 3);
    auto nnf = PushDownNot(original->Clone());
    EXPECT_FALSE(HasStructuralNot(*nnf));
    for (int d = 0; d < 20; ++d) {
      const Document doc = RandomDoc(rng);
      EXPECT_EQ(EvalWhereOnDocument(*original, doc),
                EvalWhereOnDocument(*nnf, doc))
          << original->ToString() << "  vs  " << nnf->ToString();
    }
  }
}

// --- CNF / DNF ---------------------------------------------------------

TEST(CnfTest, DistributesOrOverAnd) {
  auto e = ToCnf(ParseWhere("a = 1 OR (b = 2 AND c = 3)"));
  EXPECT_TRUE(IsCnfShape(*e)) << e->ToString();
  EXPECT_EQ(e->kind, Expr::Kind::kAnd);
}

TEST(CnfTest, ReducesDepthOfPaperExample) {
  auto original = ParseWhere(
      "tenant_id = 10086 AND created_time >= 1 AND created_time <= 9 "
      "AND status = 1 OR group = 666");
  const size_t original_depth = original->Depth();
  auto cnf = ToCnf(std::move(original));
  EXPECT_TRUE(IsCnfShape(*cnf));
  EXPECT_LE(cnf->Depth(), original_depth);
}

// Property: CNF and DNF preserve semantics; CNF output has CNF shape
// unless the blow-up guard kicked in.
TEST(CnfDnfProperty, EquivalentToOriginal) {
  Rng rng(202);
  for (int trial = 0; trial < 200; ++trial) {
    auto original = RandomExpr(rng, 3);
    auto cnf = ToCnf(original->Clone());
    auto dnf = ToDnf(original->Clone());
    for (int d = 0; d < 20; ++d) {
      const Document doc = RandomDoc(rng);
      const bool expected = EvalWhereOnDocument(*original, doc);
      EXPECT_EQ(EvalWhereOnDocument(*cnf, doc), expected);
      EXPECT_EQ(EvalWhereOnDocument(*dnf, doc), expected);
    }
  }
}

TEST(CnfTest, BlowupGuardReturnsNnf) {
  // (a=0 OR b=0) AND (a=1 OR b=1) AND ... in DNF explodes; with a tiny
  // budget the conversion must fall back without changing semantics.
  std::string clause = "(a = 0 OR b = 0)";
  std::string sql = clause;
  for (int i = 1; i < 12; ++i) {
    sql += " AND (a = " + std::to_string(i) + " OR b = " + std::to_string(i) +
           ")";
  }
  auto original = ParseWhere(sql);
  auto dnf = ToDnf(original->Clone(), /*max_nodes=*/64);
  EXPECT_LE(dnf->NodeCount(), 64u);
}

// --- Predicate merge -----------------------------------------------------

TEST(MergeTest, OrEqualitiesBecomeIn) {
  auto e = MergePredicates(ParseWhere("tenant_id = 1 OR tenant_id = 2"));
  EXPECT_EQ(e->kind, Expr::Kind::kPred);
  EXPECT_EQ(e->pred.op, PredOp::kIn);
  EXPECT_EQ(e->pred.args.size(), 2u);
}

TEST(MergeTest, OrInListsCombineAndDedupe) {
  auto e = MergePredicates(
      ParseWhere("a IN (1, 2) OR a = 2 OR a IN (3)"));
  EXPECT_EQ(e->pred.op, PredOp::kIn);
  EXPECT_EQ(e->pred.args.size(), 3u);
}

TEST(MergeTest, AndRangesBecomeBetween) {
  auto e = MergePredicates(ParseWhere("t >= 5 AND t <= 9"));
  EXPECT_EQ(e->kind, Expr::Kind::kPred);
  EXPECT_EQ(e->pred.op, PredOp::kBetween);
  EXPECT_EQ(e->pred.args[0].as_int(), 5);
  EXPECT_EQ(e->pred.args[1].as_int(), 9);
}

TEST(MergeTest, AndRangesTighten) {
  auto e = MergePredicates(ParseWhere("t >= 1 AND t >= 5 AND t <= 9 AND t <= 20"));
  EXPECT_EQ(e->pred.op, PredOp::kBetween);
  EXPECT_EQ(e->pred.args[0].as_int(), 5);
  EXPECT_EQ(e->pred.args[1].as_int(), 9);
}

TEST(MergeTest, ContradictionBecomesConstantFalse) {
  auto e = MergePredicates(ParseWhere("t > 9 AND t < 3"));
  EXPECT_TRUE(IsConstantFalse(*e)) << e->ToString();
  e = MergePredicates(ParseWhere("t = 1 AND t = 2"));
  EXPECT_TRUE(IsConstantFalse(*e)) << e->ToString();
}

TEST(MergeTest, EqualBoundsCollapseToEq) {
  auto e = MergePredicates(ParseWhere("t >= 7 AND t <= 7"));
  EXPECT_EQ(e->pred.op, PredOp::kEq);
  EXPECT_EQ(e->pred.args[0].as_int(), 7);
}

TEST(MergeTest, DuplicatePredicatesDropped) {
  auto e = MergePredicates(ParseWhere("a IS NULL AND a IS NULL"));
  EXPECT_EQ(e->kind, Expr::Kind::kPred);
}

TEST(MergeTest, DifferentColumnsUntouched) {
  auto e = MergePredicates(ParseWhere("a = 1 AND b = 2"));
  EXPECT_EQ(e->kind, Expr::Kind::kAnd);
  EXPECT_EQ(e->children.size(), 2u);
}

// Property: MergePredicates preserves semantics.
TEST(MergeProperty, EquivalentToOriginal) {
  Rng rng(303);
  for (int trial = 0; trial < 300; ++trial) {
    auto original = RandomExpr(rng, 3);
    auto merged = MergePredicates(original->Clone());
    for (int d = 0; d < 20; ++d) {
      const Document doc = RandomDoc(rng);
      EXPECT_EQ(EvalWhereOnDocument(*original, doc),
                EvalWhereOnDocument(*merged, doc))
          << original->ToString() << "  vs  " << merged->ToString();
    }
  }
}

// Property: the full planning pipeline preserves semantics.
TEST(NormalizeProperty, FullPipelineEquivalent) {
  Rng rng(404);
  for (int trial = 0; trial < 300; ++trial) {
    auto original = RandomExpr(rng, 3);
    auto normalized = NormalizeForPlanning(original->Clone());
    for (int d = 0; d < 20; ++d) {
      const Document doc = RandomDoc(rng);
      EXPECT_EQ(EvalWhereOnDocument(*original, doc),
                EvalWhereOnDocument(*normalized, doc))
          << original->ToString() << "  vs  " << normalized->ToString();
    }
  }
}

}  // namespace
}  // namespace esdb
