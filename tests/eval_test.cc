#include <gtest/gtest.h>

#include "cq/properties.h"
#include "eval/brute.h"
#include "eval/normalize.h"
#include "eval/varrel.h"
#include "eval/yannakakis.h"
#include "test_util.h"

namespace omqe {
namespace {

using testing::SameTupleSet;
using testing::World;

TEST(VarRelationTest, AddProjectFilter) {
  VarRelation r({0, 1});
  Value t1[2] = {10, 20};
  Value t2[2] = {10, 21};
  EXPECT_TRUE(r.AddRow(t1));
  EXPECT_FALSE(r.AddRow(t1));
  EXPECT_TRUE(r.AddRow(t2));
  EXPECT_EQ(r.NumRows(), 2u);
  EXPECT_TRUE(r.ContainsRow(t1));
  VarRelation p = r.Project({0});
  EXPECT_EQ(p.NumRows(), 1u);  // both rows collapse to (10)
  r.Filter([](const Value* row) { return row[1] == 21; });
  EXPECT_EQ(r.NumRows(), 1u);
}

TEST(VarRelationTest, ProjectShrinksHeavilyCollapsingOutput) {
  // 20k source rows collapse to 8 distinct projected rows; the projection
  // must not keep source-row-count capacity in its dedup table or data.
  constexpr uint32_t kRows = 20000;
  VarRelation r({0, 1});
  r.Reserve(kRows);
  for (uint32_t i = 0; i < kRows; ++i) {
    Value row[2] = {i, 1000000u + (i % 8)};
    r.AddRow(row);
  }
  VarRelation p = r.Project({1});
  ASSERT_EQ(p.NumRows(), 8u);
  HashStats stats = p.DedupStats();
  EXPECT_EQ(stats.size, 8u);
  EXPECT_LE(stats.capacity, 64u) << "dedup table kept source-row capacity";

  // A non-collapsing projection keeps its rows and stays functional.
  VarRelation q = r.Project({0, 1});
  EXPECT_EQ(q.NumRows(), kRows);
  Value probe[2] = {17u, 1000000u + (17 % 8)};
  EXPECT_TRUE(q.ContainsRow(probe));
}

TEST(VarRelationTest, ShrinkToFitPreservesContents) {
  VarRelation r({0});
  r.Reserve(4096);
  for (uint32_t i = 0; i < 5; ++i) {
    Value row[1] = {i};
    r.AddRow(row);
  }
  r.ShrinkToFit();
  EXPECT_EQ(r.NumRows(), 5u);
  for (uint32_t i = 0; i < 5; ++i) {
    Value row[1] = {i};
    EXPECT_TRUE(r.ContainsRow(row));
    EXPECT_FALSE(r.AddRow(row));  // dedup table rebuilt correctly
  }
  EXPECT_LE(r.DedupStats().capacity, 16u);
}

TEST(VarRelationTest, ZeroWidthSemantics) {
  VarRelation r(std::vector<uint32_t>{});
  EXPECT_TRUE(r.empty());
  EXPECT_TRUE(r.AddRow(nullptr));
  EXPECT_FALSE(r.AddRow(nullptr));
  EXPECT_EQ(r.NumRows(), 1u);
}

TEST(VarRelationTest, SemijoinSharedAndDisjoint) {
  VarRelation a({0, 1});
  VarRelation b({1, 2});
  Value r1[2] = {1, 2}, r2[2] = {1, 3};
  a.AddRow(r1);
  a.AddRow(r2);
  Value s1[2] = {2, 9};
  b.AddRow(s1);
  SemijoinReduce(&a, b);  // keep rows of a whose var-1 value occurs in b
  EXPECT_EQ(a.NumRows(), 1u);
  EXPECT_EQ(a.Row(0)[1], 2u);
  // Disjoint: empty source clears target.
  VarRelation c({5});
  SemijoinReduce(&a, c);
  EXPECT_TRUE(a.empty());
}

TEST(RowIndexTest, KeyLookupOverVarRelation) {
  VarRelation r({3, 7});
  Value rows[3][2] = {{1, 10}, {1, 11}, {2, 12}};
  for (auto& row : rows) r.AddRow(row);
  RowIndex idx(r.Row(0), r.NumRows(), r.width(), r.ColumnsOf({3}));
  Value key[1] = {1};
  int n = 0;
  for (uint32_t row = idx.First(key); row != UINT32_MAX; row = idx.Next(row)) ++n;
  EXPECT_EQ(n, 2);
  key[0] = 5;
  EXPECT_EQ(idx.First(key), UINT32_MAX);
}

TEST(BruteTest, SimpleJoin) {
  World w;
  w.Load("R(a,b) R(b,c) S(b) S(c)");
  CQ q = w.Query("q(x, y) :- R(x, y), S(y)");
  auto answers = w.RenderAll(BruteAnswers(q, w.db));
  EXPECT_EQ(answers, (std::vector<std::string>{"a,b", "b,c"}));
}

TEST(BruteTest, ConstantsRepeatsSelfJoins) {
  World w;
  w.Load("R(a,a) R(a,b) R(b,a)");
  CQ q = w.Query("q(x) :- R(x, x)");
  EXPECT_EQ(w.RenderAll(BruteAnswers(q, w.db)), (std::vector<std::string>{"a"}));
  CQ q2 = w.Query("q(x) :- R(x, 'b')");
  EXPECT_EQ(w.RenderAll(BruteAnswers(q2, w.db)), (std::vector<std::string>{"a"}));
  CQ q3 = w.Query("q(x) :- R(x, y), R(y, x)");
  EXPECT_EQ(w.RenderAll(BruteAnswers(q3, w.db)),
            (std::vector<std::string>{"a", "b"}));
}

TEST(BruteTest, BooleanAndEmpty) {
  World w;
  w.Load("R(a,b)");
  CQ yes = w.Query("q() :- R(x, y)");
  EXPECT_EQ(BruteAnswers(yes, w.db).size(), 1u);
  CQ no = w.Query("q() :- R(x, x)");
  EXPECT_EQ(BruteAnswers(no, w.db).size(), 0u);
}

TEST(BruteTest, HasHomWithPrebinding) {
  World w;
  w.Load("R(a,b) R(b,c)");
  CQ q = w.Query("q(x) :- R(x, y)");
  HomSearch search(q, w.db);
  std::vector<Value> pre(q.num_vars(), kNoValue);
  pre[q.answer_vars()[0]] = w.C("a");
  EXPECT_TRUE(search.HasHom(pre));
  pre[q.answer_vars()[0]] = w.C("c");
  EXPECT_FALSE(search.HasHom(pre));
}

TEST(YannakakisTest, MaterializeAtomFiltersConstantsAndRepeats) {
  World w;
  w.Load("T(a,b,a) T(a,b,c) T(b,b,b)");
  CQ q = w.Query("q(x, y) :- T(x, y, x)");
  VarRelation r = MaterializeAtom(q, q.atoms()[0], w.db);
  EXPECT_EQ(r.NumRows(), 2u);  // (a,b) and (b,b)
  CQ q2 = w.Query("q(x) :- T('a', x, y)");
  VarRelation r2 = MaterializeAtom(q2, q2.atoms()[0], w.db);
  EXPECT_EQ(r2.NumRows(), 2u);
}

TEST(YannakakisTest, BooleanAcyclicAgainstBrute) {
  World w;
  w.Load("R(a,b) R(b,c) S(c,d) A(a) A(d)");
  std::vector<std::string> queries = {
      "q() :- R(x, y), R(y, z), S(z, u)",
      "q() :- R(x, y), S(y, z), A(z)",
      "q() :- A(x), R(x, y)",
      "q() :- R(x, y), S(x, y)",
  };
  for (const auto& text : queries) {
    CQ q = w.Query(text);
    ASSERT_TRUE(IsAcyclic(q)) << text;
    EXPECT_EQ(BooleanAcyclicEval(q, w.db), !BruteAnswers(q, w.db).empty()) << text;
  }
}

TEST(YannakakisTest, BindAndQuantify) {
  World w;
  w.Load("R(a,b)");
  CQ q = w.Query("q(x, y) :- R(x, y)");
  ValueTuple t{w.C("a"), w.C("b")};
  CQ bound = BindAnswerVars(q, t);
  EXPECT_TRUE(bound.IsBoolean());
  EXPECT_TRUE(BooleanAcyclicEval(bound, w.db));
  ValueTuple t2{w.C("b"), w.C("a")};
  EXPECT_FALSE(BooleanAcyclicEval(BindAnswerVars(q, t2), w.db));
  CQ half = QuantifyAnswerVars(q, VarBit(q.answer_vars()[1]));
  EXPECT_EQ(half.arity(), 1u);
}

TEST(NormalizeTest, EquivalentToBruteOnSmallCases) {
  World w;
  w.Load(R"(
    R(a,b) R(b,c) R(c,a) S(b,x1) S(c,x2) T(x1) T(x2) A(a) A(b)
  )");
  std::vector<std::string> queries = {
      "q(x, y) :- R(x, y)",
      "q(x) :- R(x, y), S(y, z)",
      "q(x, y) :- R(x, y), S(y, z), T(z)",
      "q(x) :- A(x), R(x, y)",
      "q(x, y) :- A(x), S(y, u)",           // disconnected
      "q(x) :- R(x, y), S(y, z), T(z), A(x)",
      "q(x, y) :- R(x, y), S(x, y)",        // multi-edge-ish (no match)
  };
  for (const auto& text : queries) {
    CQ q = w.Query(text);
    if (!IsAcyclic(q) || !IsFreeConnexAcyclic(q)) continue;
    Normalized norm;
    ASSERT_TRUE(Normalize(q, w.db, false, &norm).ok()) << text;
    // Materialize all q1 answers by walking rows (brute over the trees).
    // Equivalence is checked via the enumerator tests; here we check basic
    // invariants: trees are var-disjoint and cover the answer variables.
    VarSet seen = 0;
    for (const auto& tree : norm.trees) {
      EXPECT_EQ(seen & tree.vars, 0u) << text;
      seen |= tree.vars;
    }
    if (!norm.empty) {
      EXPECT_EQ(seen, q.AnswerVarSet()) << text;
    }
  }
}

TEST(NormalizeTest, EmptyDetection) {
  World w;
  w.Load("R(a,b)");
  CQ q = w.Query("q(x) :- R(x, y), Dead(y)");
  w.vocab.RelationId("Dead", 1);
  Normalized norm;
  ASSERT_TRUE(Normalize(q, w.db, false, &norm).ok());
  EXPECT_TRUE(norm.empty);
}

TEST(NormalizeTest, RejectsNonFreeConnex) {
  World w;
  w.Load("R(a,b) S(b,c)");
  CQ q = w.Query("q(x, y) :- R(x, z), S(z, y)");
  Normalized norm;
  EXPECT_FALSE(Normalize(q, w.db, false, &norm).ok());
}

TEST(NormalizeTest, ProgressCondition) {
  // Every row of every node must extend to a child row (condition (iv)).
  World w;
  w.Load("R(a,b) R(a,c) S(b,d) T(d) U(a)");
  CQ q = w.Query("q(x, y, z) :- R(x, y), S(y, z), U(x)");
  Normalized norm;
  ASSERT_TRUE(Normalize(q, w.db, false, &norm).ok());
  ASSERT_FALSE(norm.empty);
  for (const auto& tree : norm.trees) {
    for (const auto& node : tree.nodes) {
      for (int child_id : node.children) {
        const NormNode& child = tree.nodes[child_id];
        for (uint32_t r = 0; r < node.rel.NumRows(); ++r) {
          // Build the child's predecessor key from this row.
          ValueTuple key;
          for (uint32_t pv : child.pred_vars) {
            key.push_back(node.rel.Row(r)[node.rel.ColumnOf(pv)]);
          }
          EXPECT_NE(child.index.First(key.data()), UINT32_MAX);
        }
      }
    }
  }
}

}  // namespace
}  // namespace omqe
