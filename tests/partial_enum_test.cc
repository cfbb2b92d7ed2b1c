#include <gtest/gtest.h>

#include "core/baseline.h"
#include "core/omq.h"
#include "core/partial_enum.h"
#include "core/prepared.h"
#include "test_util.h"
#include "workload/chains.h"
#include "workload/office.h"

namespace omqe {
namespace {

using testing::SameTupleSet;
using testing::World;

void CheckPartialAgainstBaseline(World& w, const Ontology& onto,
                                 const std::string& query) {
  CQ q = w.Query(query);
  OMQ omq = MakeOMQ(onto, q);
  auto e = PartialEnumerator::Create(omq, w.db);
  ASSERT_TRUE(e.ok()) << query << ": " << e.status().ToString();
  std::vector<ValueTuple> got;
  ValueTuple t;
  while ((*e)->Next(&t)) got.push_back(t);
  // No duplicates.
  std::vector<ValueTuple> sorted = got;
  SortTuples(&sorted);
  for (size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_NE(sorted[i - 1], sorted[i]) << query;
  }
  // Ground truth over the same chase.
  std::vector<ValueTuple> want =
      BruteMinimalPartialAnswers(q, (*e)->chase().db);
  EXPECT_TRUE(SameTupleSet(got, want))
      << query << ": got " << got.size() << " want " << want.size();
  if (::testing::Test::HasFailure()) {
    for (auto& x : got) fprintf(stderr, "got:  %s\n", w.Render(x).c_str());
    for (auto& x : want) fprintf(stderr, "want: %s\n", w.Render(x).c_str());
  }
}

TEST(PartialEnumTest, Example11) {
  World w;
  Ontology onto = w.Onto(R"(
    Researcher(x) -> exists y. HasOffice(x, y)
    HasOffice(x, y) -> Office(y)
    Office(x) -> exists y. InBuilding(x, y)
  )");
  w.Load(R"(
    Researcher(mary) Researcher(john) Researcher(mike)
    HasOffice(mary, room1) HasOffice(john, room4)
    InBuilding(room1, main1)
  )");
  CQ q = w.Query("q(x1, x2, x3) :- HasOffice(x1, x2), InBuilding(x2, x3)");
  auto e = PartialEnumerator::Create(MakeOMQ(onto, q), w.db);
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  std::vector<ValueTuple> got;
  ValueTuple t;
  while ((*e)->Next(&t)) got.push_back(t);
  auto rendered = w.RenderAll(got);
  // The paper's Example 1.1 answer set.
  EXPECT_EQ(rendered, (std::vector<std::string>{
                          "john,room4,*",
                          "mary,room1,main1",
                          "mike,*,*",
                      }));
}

TEST(PartialEnumTest, AgainstBaselineVariousQueries) {
  World w;
  Ontology onto = w.Onto(R"(
    A(x) -> exists y. R(x, y)
    R(x, y) -> B(y)
    B(x) -> exists y. S(x, y)
  )");
  w.Load("A(a1) A(a2) R(a1, c) S(c, d) B(d) T(d, e)");
  for (const char* query : {
           "q(x) :- A(x)",
           "q(x, y) :- R(x, y)",
           "q(x, y) :- R(x, y), B(y)",
           "q(x, y, z) :- R(x, y), S(y, z)",
           "q(x, y) :- S(x, y)",
           "q(x, y, z) :- R(x, y), S(y, z), T(z, u)",  // needs z in T? T(d,e): ok
       }) {
    CheckPartialAgainstBaseline(w, onto, query);
  }
}

TEST(PartialEnumTest, DisconnectedProduct) {
  World w;
  Ontology onto = w.Onto("A(x) -> exists y. R(x, y)");
  w.Load("A(a) R(b, c) U(u1) U(u2)");
  CheckPartialAgainstBaseline(w, onto, "q(x, y, u) :- R(x, y), U(u)");
  CheckPartialAgainstBaseline(w, onto, "q(u, x, y) :- U(u), R(x, y)");
}

TEST(PartialEnumTest, CompleteAnswersAreSubset) {
  World w;
  Ontology onto = w.Onto("A(x) -> exists y. R(x, y)");
  w.Load("A(a) A(b) R(a, c)");
  CQ q = w.Query("q(x, y) :- R(x, y)");
  OMQ omq = MakeOMQ(onto, q);
  std::vector<ValueTuple> partial = AllMinimalPartialAnswers(omq, w.db);
  // (a,c) complete; (b,*) partial-only. (a,*) is NOT minimal.
  auto rendered = w.RenderAll(partial);
  EXPECT_EQ(rendered, (std::vector<std::string>{"a,c", "b,*"}));
}

TEST(PartialEnumTest, WildcardOnlyWhenNoConstantWitness) {
  // Two researchers share the same *named* office; partial answers must
  // prefer the constant.
  World w;
  Ontology onto = w.Onto("Researcher(x) -> exists y. HasOffice(x, y)");
  w.Load("Researcher(r1) Researcher(r2) HasOffice(r1, office7)");
  CheckPartialAgainstBaseline(w, onto, "q(x, y) :- HasOffice(x, y)");
}

TEST(PartialEnumTest, BooleanQuery) {
  World w;
  Ontology onto = w.Onto("A(x) -> exists y. R(x, y)");
  w.Load("A(a)");
  CQ q = w.Query("q() :- R(x, y)");
  auto e = PartialEnumerator::Create(MakeOMQ(onto, q), w.db);
  ASSERT_TRUE(e.ok());
  ValueTuple t;
  EXPECT_TRUE((*e)->Next(&t));
  EXPECT_EQ(t.size(), 0u);
  EXPECT_FALSE((*e)->Next(&t));
}

TEST(PartialEnumTest, ResetReproducesAnswers) {
  World w;
  Ontology onto = w.Onto("A(x) -> exists y. R(x, y)");
  w.Load("A(a) A(b) R(a, c) R(b, d)");
  CQ q = w.Query("q(x, y) :- R(x, y)");
  auto e = PartialEnumerator::Create(MakeOMQ(onto, q), w.db);
  ASSERT_TRUE(e.ok());
  std::vector<ValueTuple> first, second;
  ValueTuple t;
  while ((*e)->Next(&t)) first.push_back(t);
  (*e)->Reset();
  while ((*e)->Next(&t)) second.push_back(t);
  EXPECT_TRUE(SameTupleSet(first, second));
}

TEST(PartialEnumTest, DeepExcursions) {
  // Chains of existentials: the excursion spans several query atoms.
  World w;
  Ontology onto = w.Onto(R"(
    A(x) -> exists y. R(x, y)
    R(x, y) -> exists z. S(y, z)
    S(x, y) -> exists z. T(y, z)
  )");
  w.Load("A(a) R(a, r) S(r, s) T(s, t) A(b)");
  CheckPartialAgainstBaseline(w, onto, "q(x, y, z, u) :- R(x, y), S(y, z), T(z, u)");
}

TEST(PartialEnumTest, MultipleExcursionBranches) {
  // An existential with two branches below the same guard (Example 6.2's
  // ontology shape).
  World w;
  Ontology onto = w.Onto(
      "A(x) -> exists y1, y2. R(x, y1), T(x, y1), S(x, y2)");
  w.Load("A(c) R(c, cp)");
  CheckPartialAgainstBaseline(w, onto, "q(x0, x1, x2, x3) :- R(x0, x1), S(x0, x2), T(x0, x3)");
}

TEST(PartialEnumTest, TwentyAtomChain) {
  // 21 variables: an answer's full-chain subtree has 21 non-star
  // positions, so pruning must not depend on enumerating their 2^21
  // subsets. One existential excursion extends the constant chain by a
  // null, so the answers mix complete and wildcarded rows.
  World w;
  Ontology onto = w.Onto("A(x) -> exists y. R(x, y)");
  std::string facts = "A(c21) A(c5)";
  for (int i = 0; i < 21; ++i) {
    facts += " R(c" + std::to_string(i) + ", c" + std::to_string(i + 1) + ")";
  }
  w.Load(facts);
  std::string query = "q(";
  std::string body;
  for (int i = 0; i <= 20; ++i) {
    query += (i > 0 ? ", x" : "x") + std::to_string(i);
    if (i < 20) {
      body += (i > 0 ? ", R(x" : "R(x") + std::to_string(i) + ", x" +
              std::to_string(i + 1) + ")";
    }
  }
  query += ") :- " + body;
  CheckPartialAgainstBaseline(w, onto, query);
  std::vector<ValueTuple> got =
      AllMinimalPartialAnswers(MakeOMQ(onto, w.Query(query)), w.db);
  EXPECT_EQ(got.size(), 3u);  // c0.., c1.., and c2..c21 followed by '*'
}

// Probes of the location table per emitted row: Prune probes only the star
// patterns the pool holds that strictly contain the output's stars. The
// bounds sit at most 1.25x above the values measured at these sizes (2.83
// and 0.90). Probing every subset of every subtree's non-star variables
// reads 35.7 and 6.8 here, so the bounds pin the mechanism.
double ProbesPerRow(const OMQ& omq, const Database& db) {
  auto prepared = PreparedOMQ::Prepare(omq, db);
  EXPECT_TRUE(prepared.ok()) << prepared.status().ToString();
  if (!prepared.ok()) return 0;
  EnumerationSession session(*prepared);
  ValueTuple t;
  uint64_t rows = 0;
  while (session.Next(&t)) ++rows;
  EXPECT_GT(rows, 1000u);
  return static_cast<double>(session.location_probes()) / rows;
}

TEST(PartialEnumTest, PruneProbesPerRowOnChain) {
  Vocabulary vocab;
  Database db(&vocab);
  ChainParams params;
  params.length = 3;
  params.base_size = 2000;
  params.fanout = 3;
  params.anonymous_fraction = 0.2;
  GenerateChain(params, &db);
  double probes = ProbesPerRow(MakeOMQ(ChainOntology(&vocab, 3),
                                       ChainQuery(&vocab, 3)),
                               db);
  EXPECT_GT(probes, 0.0);
  EXPECT_LE(probes, 3.5);
}

TEST(PartialEnumTest, PruneProbesPerRowOnOffice) {
  Vocabulary vocab;
  Database db(&vocab);
  OfficeParams params;
  params.researchers = 2000;
  GenerateOffice(params, &db);
  double probes = ProbesPerRow(OfficeOMQ(&vocab), db);
  EXPECT_GT(probes, 0.0);
  EXPECT_LE(probes, 1.1);
}

// The per-answer link work, as a count rather than a timer. An Unlink
// follows one location probe and copies at most three entries into the
// session's link buffer: the node, its successor, and its predecessor. So
// no Next() copies more than three entries per probe it made, and the
// largest step does not grow with the data. Nothing is copied in bulk
// either: after a full drain the buffer holds exactly the nodes pruning
// touched, however large a share of the pool that is.
struct LinkWrites {
  size_t max_step = 0;     // most entries one Next() copied
  size_t over_bound = 0;   // steps that copied more than 3 per probe
  size_t touched_nodes = 0;
  size_t trees = 0;
};

LinkWrites DrainOfficeCountingLinkWrites(uint32_t researchers) {
  Vocabulary vocab;
  Database db(&vocab);
  OfficeParams params;
  params.researchers = researchers;
  GenerateOffice(params, &db);
  auto prepared = PreparedOMQ::Prepare(OfficeOMQ(&vocab), db);
  EXPECT_TRUE(prepared.ok()) << prepared.status().ToString();
  LinkWrites w;
  if (!prepared.ok()) return w;
  EnumerationSession session(*prepared);
  ValueTuple t;
  size_t copied = 0;
  uint64_t probes = 0;
  for (bool more = true; more;) {
    more = session.Next(&t);
    const size_t now = session.overlay_stats().touched_nodes;
    const size_t step = now - copied;
    if (step > 3 * (session.location_probes() - probes)) ++w.over_bound;
    w.max_step = std::max(w.max_step, step);
    copied = now;
    probes = session.location_probes();
  }
  w.touched_nodes = session.overlay_stats().touched_nodes;
  w.trees = (*prepared)->num_progress_trees();
  return w;
}

TEST(PartialEnumTest, LinkWritesPerStepStayConstant) {
  LinkWrites small = DrainOfficeCountingLinkWrites(1000);
  LinkWrites large = DrainOfficeCountingLinkWrites(16000);
  EXPECT_EQ(small.over_bound, 0u);
  EXPECT_EQ(large.over_bound, 0u);
  EXPECT_GT(small.max_step, 0u);
  EXPECT_EQ(small.max_step, large.max_step);
  // The true count of pruned nodes: 61 % of the pool here.
  EXPECT_EQ(small.trees, 2486u);
  EXPECT_EQ(small.touched_nodes, 1518u);
}

}  // namespace
}  // namespace omqe
