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
  Value t3[2] = {11, 21};
  Value t4[2] = {12, 20};
  for (const Value* t : {t1, t2, t3, t4}) r.AddRow(t);
  EXPECT_EQ(r.NumRows(), 4u);
  VarRelation p = r.Project({0});
  EXPECT_EQ(p.NumRows(), 3u);  // (10) twice collapses to one row
  r.Filter([](const Value* row) { return row[0] != 10; });
  ASSERT_EQ(r.NumRows(), 2u);
  // The kept rows stay in their order, compacted to the front.
  EXPECT_EQ(r.Row(0)[0], 11u);
  EXPECT_EQ(r.Row(0)[1], 21u);
  EXPECT_EQ(r.Row(1)[0], 12u);
  EXPECT_EQ(r.Row(1)[1], 20u);
}

TEST(VarRelationTest, ProjectKeepsFirstOccurrenceOrder) {
  // 20k source rows collapse to 8 distinct projected rows, each kept once
  // where it first occurs; the source rows run through the 8 values from
  // the last to the first.
  constexpr uint32_t kRows = 20000;
  VarRelation r({0, 1});
  for (uint32_t i = 0; i < kRows; ++i) {
    Value row[2] = {i, 1000000u + (7 - i % 8)};
    r.AddRow(row);
  }
  VarRelation p = r.Project({1});
  ASSERT_EQ(p.NumRows(), 8u);
  for (uint32_t k = 0; k < 8; ++k) EXPECT_EQ(p.Row(k)[0], 1000000u + (7 - k));

  // Projecting onto the columns in another order keeps every row, in the
  // source's order.
  VarRelation q = r.Project({1, 0});
  ASSERT_EQ(q.NumRows(), kRows);
  EXPECT_EQ(q.Row(17)[0], 1000000u + (7 - 17 % 8));
  EXPECT_EQ(q.Row(17)[1], 17u);
}

TEST(VarRelationTest, ZeroWidthSemantics) {
  VarRelation r(std::vector<uint32_t>{});
  EXPECT_TRUE(r.empty());
  EXPECT_TRUE(r.Project({}).empty());
  r.AddRow(nullptr);
  EXPECT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.Project({}).NumRows(), 1u);

  // A projection onto no variables holds at most one row, however many
  // rows its source has.
  VarRelation wide({0});
  for (Value v = 0; v < 5; ++v) wide.AddRow(&v);
  EXPECT_EQ(wide.Project({}).NumRows(), 1u);
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
  VarRelation r = MaterializeAtom(q.atoms()[0], w.db);
  EXPECT_EQ(r.NumRows(), 2u);  // (a,b) and (b,b)
  CQ q2 = w.Query("q(x) :- T('a', x, y)");
  VarRelation r2 = MaterializeAtom(q2.atoms()[0], w.db);
  EXPECT_EQ(r2.NumRows(), 2u);
}

TEST(YannakakisTest, MaterializeAtomGivesOneRowPerMatchingFact) {
  // A relation keeps no table of its own: it is a set because the database
  // is one and each matching fact gives exactly one row. Nulls count as
  // values like any other here.
  World w;
  RelId t = w.vocab.RelationId("T", 3);
  RelId z = w.vocab.RelationId("Z", 0);
  const Value a = w.C("a"), b = w.C("b");
  const Value n1 = w.db.FreshNull(), n2 = w.db.FreshNull();
  const std::vector<std::vector<Value>> facts = {
      {a, n1, a}, {a, n2, a}, {n1, n1, a}, {n1, b, n1},
      {n2, b, n2}, {a, b, a}, {n1, n1, n1}, {a, a, a},
  };
  for (const auto& f : facts) ASSERT_TRUE(w.db.AddFact(t, f.data(), 3));
  EXPECT_FALSE(w.db.AddFact(t, facts[0].data(), 3));  // already present
  EXPECT_TRUE(w.db.AddFact(z, nullptr, 0));
  EXPECT_FALSE(w.db.AddFact(z, nullptr, 0));

  struct Case {
    const char* query;
    uint32_t rows;  // matching facts, counted by hand
  };
  const Case cases[] = {
      {"q(x, y) :- T(x, y, x)", 7},        // repeated variable
      {"q(y) :- T('a', y, 'a')", 4},       // constants
      {"q(x) :- T(x, x, x)", 2},           // one variable three times
      {"q(x, y) :- T(x, x, y)", 3},
      {"q() :- T('a', 'b', 'a')", 1},      // no variables, one match
      {"q() :- T('b', 'b', 'b')", 0},      // no variables, no match
      {"q() :- Z()", 1},                   // a 0-ary fact
  };
  for (const Case& c : cases) {
    CQ q = w.Query(c.query);
    VarRelation r = MaterializeAtom(q.atoms()[0], w.db);
    EXPECT_EQ(r.NumRows(), c.rows) << c.query;
    if (r.width() == 0) continue;
    TupleMap<char> distinct;
    for (uint32_t i = 0; i < r.NumRows(); ++i) {
      char& seen = distinct.InsertOrGet(r.Row(i), r.width(), 0);
      EXPECT_EQ(seen, 0) << c.query << " repeats row " << i;
      seen = 1;
    }
  }
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
  // Every row of every node must extend to a child row (condition (iv)),
  // and full reduction leaves every child row a parent row. The last six
  // facts join no answer, so whichever node q1's tree is rooted at, some
  // child holds a row that only the top-down pass removes.
  World w;
  w.Load("R(a,b) R(a,c) S(b,d) T(d) U(a) S(e,f) U(g) R(h,i) U(h) R(m,n) S(n,o)");
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
        for (uint32_t r = 0; r < child.rel.NumRows(); ++r) {
          bool has_parent = false;
          for (uint32_t p = 0; p < node.rel.NumRows() && !has_parent; ++p) {
            has_parent = true;
            for (uint32_t pv : child.pred_vars) {
              has_parent &= child.rel.Row(r)[child.rel.ColumnOf(pv)] ==
                            node.rel.Row(p)[node.rel.ColumnOf(pv)];
            }
          }
          EXPECT_TRUE(has_parent) << "child row " << r << " has no parent row";
        }
      }
    }
  }
}

}  // namespace
}  // namespace omqe
