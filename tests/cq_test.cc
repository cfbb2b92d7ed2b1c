#include <gtest/gtest.h>

#include "cq/cq.h"
#include "cq/hypergraph.h"
#include "cq/parser.h"
#include "cq/properties.h"
#include "data/schema.h"
#include "test_util.h"

namespace omqe {
namespace {

using testing::World;

TEST(CqParserTest, HeadAndBody) {
  World w;
  CQ q = w.Query("q(x1, x2) :- HasOffice(x1, x2), InBuilding(x2, y)");
  EXPECT_EQ(q.arity(), 2u);
  EXPECT_EQ(q.atoms().size(), 2u);
  EXPECT_EQ(q.num_vars(), 3u);
  EXPECT_EQ(w.vocab.Arity(q.atoms()[0].rel), 2u);
  EXPECT_EQ(q.var_name(q.answer_vars()[0]), "x1");
}

TEST(CqParserTest, BooleanForms) {
  World w;
  CQ q1 = w.Query("q() :- R(x, y)");
  EXPECT_TRUE(q1.IsBoolean());
  CQ q2 = w.Query("R(x, y), S(y)");
  EXPECT_TRUE(q2.IsBoolean());
  EXPECT_EQ(q2.atoms().size(), 2u);
}

TEST(CqParserTest, ConstantsQuotedAndNumeric) {
  World w;
  CQ q = w.Query("q(x) :- HasOffice(x, 'room1'), Level(x, 3)");
  EXPECT_EQ(q.Constants().size(), 2u);
  EXPECT_TRUE(q.Constants()[0] == w.C("room1") || q.Constants()[1] == w.C("room1"));
}

TEST(CqParserTest, Errors) {
  World w;
  Vocabulary* v = &w.vocab;
  EXPECT_FALSE(ParseCQ("q(x) :- ", v).ok());
  EXPECT_FALSE(ParseCQ("q(x) :- R(x", v).ok());
  EXPECT_FALSE(ParseCQ("q(z) :- R(x, y)", v).ok());      // unsafe head
  EXPECT_FALSE(ParseCQ("q('c') :- R(x)", v).ok());       // constant in head
  EXPECT_FALSE(ParseCQ("q(x) :- R(x) junk", v).ok());    // trailing
  // Arity mismatch across atoms.
  EXPECT_FALSE(ParseCQ("q(x) :- R(x), R(x, x)", v).ok());
  // Variable bound: a chain of 63 binary atoms has 64 variables and parses;
  // one more atom adds a 65th, which is a ParseError rather than the
  // AddVar CHECK (the wire parser reaches this with client text).
  auto chain = [](int atoms) {
    std::string text = "q(x0) :- ";
    for (int i = 0; i < atoms; ++i) {
      if (i > 0) text += ", ";
      text += "E(x" + std::to_string(i) + ", x" + std::to_string(i + 1) + ")";
    }
    return text;
  };
  auto at_bound = ParseCQ(chain(63), v);
  ASSERT_TRUE(at_bound.ok()) << at_bound.status().ToString();
  EXPECT_EQ(at_bound->num_vars(), 64u);
  auto over = ParseCQ(chain(64), v);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kParseError);
}

TEST(CqParserTest, ToStringRoundTrip) {
  World w;
  CQ q = w.Query("q(x) :- R(x, y), S(y, 'c')");
  CQ q2 = w.Query(q.ToString(w.vocab));
  EXPECT_EQ(q2.atoms().size(), 2u);
  EXPECT_EQ(q2.arity(), 1u);
}

TEST(CqTest, SelfJoinFree) {
  World w;
  EXPECT_TRUE(w.Query("q(x) :- R(x, y), S(y)").IsSelfJoinFree());
  EXPECT_FALSE(w.Query("q(x) :- R(x, y), R(y, x)").IsSelfJoinFree());
}

// --- acyclicity matrix (Figure 1 spirit: all combinations are realized) ---

TEST(PropertiesTest, PathQueryAcNotFc) {
  World w;
  // q(x,y) :- R(x,z), S(z,y): acyclic, weakly acyclic, NOT free-connex
  // (the matrix-multiplication query; bad path x-z-y).
  CQ q = w.Query("q(x, y) :- R(x, z), S(z, y)");
  EXPECT_TRUE(IsAcyclic(q));
  EXPECT_FALSE(IsFreeConnexAcyclic(q));
  EXPECT_TRUE(IsWeaklyAcyclic(q));
  EXPECT_TRUE(HasBadPath(q));
}

TEST(PropertiesTest, FullTriangleFcNotAc) {
  World w;
  // Full triangle: NOT acyclic, free-connex, weakly acyclic.
  CQ q = w.Query("q(x, y, z) :- R(x, y), S(y, z), T(z, x)");
  EXPECT_FALSE(IsAcyclic(q));
  EXPECT_TRUE(IsFreeConnexAcyclic(q));
  EXPECT_TRUE(IsWeaklyAcyclic(q));
}

TEST(PropertiesTest, QuantifiedTriangleNothing) {
  World w;
  CQ q = w.Query("q() :- R(x, y), S(y, z), T(z, x)");
  EXPECT_FALSE(IsAcyclic(q));
  EXPECT_FALSE(IsFreeConnexAcyclic(q));
  EXPECT_FALSE(IsWeaklyAcyclic(q));
}

TEST(PropertiesTest, AnswerTriangleWacOnly) {
  World w;
  // Triangle through one answer variable: weakly acyclic but neither acyclic
  // nor free-connex.
  CQ q = w.Query("q(x) :- R(x, y), S(y, z), T(z, x)");
  EXPECT_FALSE(IsAcyclic(q));
  EXPECT_FALSE(IsFreeConnexAcyclic(q));
  EXPECT_TRUE(IsWeaklyAcyclic(q));
}

TEST(PropertiesTest, SimplePathEverything) {
  World w;
  CQ q = w.Query("q(x, y) :- R(x, y), S(y, z)");
  EXPECT_TRUE(IsAcyclic(q));
  EXPECT_TRUE(IsFreeConnexAcyclic(q));
  EXPECT_TRUE(IsWeaklyAcyclic(q));
  EXPECT_FALSE(HasBadPath(q));
}

TEST(PropertiesTest, BadPathLongerChain) {
  World w;
  CQ q = w.Query("q(x, y) :- R(x, z1), U(z1, z2), S(z2, y)");
  EXPECT_TRUE(IsAcyclic(q));
  EXPECT_TRUE(HasBadPath(q));
  EXPECT_FALSE(IsFreeConnexAcyclic(q));
  // Covering atom kills the bad path but creates a cycle.
  CQ q2 = w.Query("q(x, y) :- R(x, z1), U(z1, z2), S(z2, y), T(x, y)");
  EXPECT_FALSE(HasBadPath(q2));
  EXPECT_FALSE(IsAcyclic(q2));
}

TEST(PropertiesTest, AcyclicAndFreeConnexAgreeWithBadPathCriterion) {
  // For acyclic CQs: free-connex <=> no bad path (Bagan et al.).
  World w;
  std::vector<std::string> queries = {
      "q(x, y) :- R(x, z), S(z, y)",
      "q(x, y) :- R(x, y), S(y, z)",
      "q(x) :- R(x, z), S(z, x)",
      "q(x, y) :- R(x, y), S(x, y)",
      "q(a, b) :- R(a, z), S(b, z), T3(a, b, z)",
      "q(a) :- R(a, z1), S(z1, z2), T2(z2, z3)",
      "q(a2, b2, c2) :- R(a2, b2), S(b2, c2)",
      "q(a, b) :- U1(a), U2(b)",
  };
  for (const auto& text : queries) {
    CQ q = w.Query(text);
    if (!IsAcyclic(q)) continue;
    EXPECT_EQ(IsFreeConnexAcyclic(q), !HasBadPath(q)) << text;
  }
}

TEST(PropertiesTest, ComponentsAndConnectivity) {
  World w;
  CQ q = w.Query("q(x, y) :- R(x, z), S(z), T(y)");
  auto comps = VarConnectedComponents(q);
  ASSERT_EQ(comps.size(), 2u);
  EXPECT_FALSE(IsVarConnected(q));
  CQ sub = InducedSubquery(q, comps[0]);
  EXPECT_EQ(sub.atoms().size(), 2u);
  EXPECT_EQ(sub.arity(), 1u);
  CQ q2 = w.Query("q(x) :- R(x, z), S(z)");
  EXPECT_TRUE(IsVarConnected(q2));
}

TEST(PropertiesTest, ConstantsDoNotConnectOrCycle) {
  World w;
  // A "cycle" through a constant is not a cycle; constants are not vertices.
  CQ q = w.Query("q(x) :- R(x, 'c'), S('c', x)");
  EXPECT_TRUE(IsAcyclic(q));
  // Atoms sharing only a constant are in different var-components.
  CQ q2 = w.Query("q(x, y) :- R(x, 'c'), S('c', y)");
  EXPECT_EQ(VarConnectedComponents(q2).size(), 2u);
}

TEST(HypergraphTest, GyoJoinTreeShape) {
  // Chain: R(a,b), S(b,c), T(c,d) -> valid join tree with 3 nodes.
  std::vector<VarSet> edges = {VarBit(0) | VarBit(1), VarBit(1) | VarBit(2),
                               VarBit(2) | VarBit(3)};
  auto forest = GyoJoinForest(edges);
  ASSERT_TRUE(forest.has_value());
  EXPECT_EQ(forest->roots.size(), 1u);
  // Running intersection: shared var 1 between nodes 0,1 adjacent, etc.
  int edges_in_tree = 0;
  for (int p : forest->parent) {
    if (p != -1) ++edges_in_tree;
  }
  EXPECT_EQ(edges_in_tree, 2);
}

TEST(HypergraphTest, CyclicDetected) {
  std::vector<VarSet> triangle = {VarBit(0) | VarBit(1), VarBit(1) | VarBit(2),
                                  VarBit(2) | VarBit(0)};
  EXPECT_FALSE(GyoJoinForest(triangle).has_value());
  triangle.push_back(VarBit(0) | VarBit(1) | VarBit(2));  // covering edge
  EXPECT_TRUE(GyoJoinForest(triangle).has_value());
}

TEST(HypergraphTest, EmptyAndDisconnected) {
  EXPECT_TRUE(GyoJoinForest({}).has_value());
  // Variable-disjoint edges may end up in one tree linked through an empty
  // connector (valid: running intersection is trivial); the forest must
  // still cover both nodes.
  std::vector<VarSet> disc = {VarBit(0), VarBit(1)};
  auto forest = GyoJoinForest(disc);
  ASSERT_TRUE(forest.has_value());
  EXPECT_EQ(forest->PreOrder().size(), 2u);
  EXPECT_GE(forest->roots.size(), 1u);
}

TEST(HypergraphTest, ReRootKeepsEdges) {
  std::vector<VarSet> edges = {VarBit(0) | VarBit(1), VarBit(1) | VarBit(2),
                               VarBit(2) | VarBit(3)};
  auto forest = GyoJoinForest(edges);
  ASSERT_TRUE(forest.has_value());
  ReRoot(&*forest, 0);
  EXPECT_EQ(forest->parent[0], -1);
  // Still a tree over 3 nodes.
  int tree_edges = 0;
  for (int p : forest->parent) {
    if (p != -1) ++tree_edges;
  }
  EXPECT_EQ(tree_edges, 2);
  EXPECT_EQ(forest->PreOrder().size(), 3u);
  EXPECT_EQ(forest->PreOrder()[0], 0);
}

TEST(HypergraphTest, PreOrderParentsFirst) {
  std::vector<VarSet> edges = {VarBit(0) | VarBit(1), VarBit(1) | VarBit(2),
                               VarBit(1) | VarBit(3), VarBit(3) | VarBit(4)};
  auto forest = GyoJoinForest(edges);
  ASSERT_TRUE(forest.has_value());
  auto order = forest->PreOrder();
  std::vector<int> position(order.size());
  for (size_t i = 0; i < order.size(); ++i) position[order[i]] = static_cast<int>(i);
  for (size_t v = 0; v < forest->parent.size(); ++v) {
    if (forest->parent[v] != -1) {
      EXPECT_LT(position[forest->parent[v]], position[v]);
    }
  }
}

}  // namespace
}  // namespace omqe
