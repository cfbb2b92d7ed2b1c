// Randomized property tests: the full pipeline against brute force over the
// same chase, across random guarded ontologies, random databases and random
// acyclic + free-connex queries.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/rng.h"
#include "core/all_testing.h"
#include "core/baseline.h"
#include "core/complete_enum.h"
#include "core/multiwild_enum.h"
#include "core/omq.h"
#include "core/partial_enum.h"
#include "core/single_testing.h"
#include "core/wildcards.h"
#include "cq/properties.h"
#include "eval/brute.h"
#include "test_util.h"

namespace omqe {
namespace {

using testing::SameTupleSet;
using testing::World;

struct RandomInstance {
  std::unique_ptr<World> world;
  Ontology onto;
  CQ query;
};

// Schema: unary A, B, C; binary R, S, T.
RandomInstance MakeRandom(uint64_t seed) {
  Rng rng(seed);
  RandomInstance inst;
  inst.world = std::make_unique<World>();
  World& w = *inst.world;
  const char* unary[] = {"A", "B", "C"};
  const char* binary[] = {"R", "S", "T"};
  for (const char* r : unary) w.vocab.RelationId(r, 1);
  for (const char* r : binary) w.vocab.RelationId(r, 2);

  // Random facts.
  int dom = static_cast<int>(rng.Range(2, 5));
  auto cname = [&](int i) { return "c" + std::to_string(i); };
  int facts = static_cast<int>(rng.Range(3, 12));
  for (int i = 0; i < facts; ++i) {
    if (rng.Chance(0.4)) {
      std::string rel = unary[rng.Below(3)];
      w.Load(rel + "(" + cname(rng.Range(0, dom - 1)) + ")");
    } else {
      std::string rel = binary[rng.Below(3)];
      w.Load(rel + "(" + cname(rng.Range(0, dom - 1)) + "," +
             cname(rng.Range(0, dom - 1)) + ")");
    }
  }

  // Random guarded ontology: single-atom bodies (always guarded), heads with
  // up to two atoms and up to two existential variables.
  int tgds = static_cast<int>(rng.Range(0, 3));
  std::string onto_text;
  for (int i = 0; i < tgds; ++i) {
    bool binary_body = rng.Chance(0.5);
    std::string body = binary_body ? std::string(binary[rng.Below(3)]) + "(x, y)"
                                   : std::string(unary[rng.Below(3)]) + "(x)";
    const char* head_vars[] = {"x", "y", "z", "u"};
    int max_body_var = binary_body ? 1 : 0;
    int head_atoms = static_cast<int>(rng.Range(1, 2));
    std::string head;
    for (int a = 0; a < head_atoms; ++a) {
      if (a > 0) head += ", ";
      if (rng.Chance(0.5)) {
        head += std::string(unary[rng.Below(3)]) + "(" +
                head_vars[rng.Range(0, max_body_var + 1)] + ")";
      } else {
        head += std::string(binary[rng.Below(3)]) + "(" +
                head_vars[rng.Range(0, max_body_var)] + ", " +
                head_vars[rng.Range(0, max_body_var + 2)] + ")";
      }
    }
    onto_text += body + " -> " + head + "\n";
  }
  inst.onto = MustParseOntology(onto_text, &w.vocab);

  // Random acyclic + free-connex query (rejection sampling).
  const char* qvars[] = {"v0", "v1", "v2", "v3", "v4"};
  for (int attempt = 0; attempt < 200; ++attempt) {
    int natoms = static_cast<int>(rng.Range(1, 4));
    int nvars = static_cast<int>(rng.Range(1, 5));
    std::string body;
    for (int a = 0; a < natoms; ++a) {
      if (a > 0) body += ", ";
      if (rng.Chance(0.35)) {
        body += std::string(unary[rng.Below(3)]) + "(" +
                qvars[rng.Range(0, nvars - 1)] + ")";
      } else {
        body += std::string(binary[rng.Below(3)]) + "(" +
                qvars[rng.Range(0, nvars - 1)] + ", " +
                qvars[rng.Range(0, nvars - 1)] + ")";
      }
    }
    CQ q = MustParseCQ(body, &w.vocab);  // Boolean for now
    // Random answer variables among the used ones.
    std::vector<uint32_t> used;
    VarSet all = q.AllVars();
    while (all) {
      used.push_back(static_cast<uint32_t>(__builtin_ctzll(all)));
      all &= all - 1;
    }
    int arity = static_cast<int>(rng.Range(0, static_cast<int>(used.size())));
    for (int i = 0; i < arity; ++i) {
      q.AddAnswerVar(used[rng.Below(used.size())]);
    }
    if (IsAcyclic(q) && IsFreeConnexAcyclic(q)) {
      inst.query = std::move(q);
      return inst;
    }
  }
  // Fallback: a trivially good query.
  inst.query = MustParseCQ("q(x) :- A(x)", &w.vocab);
  return inst;
}

class PipelinePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PipelinePropertyTest, CompleteEnumerationMatchesBrute) {
  RandomInstance inst = MakeRandom(GetParam());
  OMQ omq = MakeOMQ(inst.onto, inst.query);
  auto e = CompleteEnumerator::Create(omq, inst.world->db);
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  std::vector<ValueTuple> got;
  ValueTuple t;
  while ((*e)->Next(&t)) got.push_back(t);
  std::vector<ValueTuple> want = BruteCompleteAnswers(inst.query, (*e)->chase().db);
  EXPECT_TRUE(SameTupleSet(got, want))
      << "seed=" << GetParam() << " q=" << inst.query.ToString(inst.world->vocab)
      << " got=" << got.size() << " want=" << want.size();
}

TEST_P(PipelinePropertyTest, PartialEnumerationMatchesBrute) {
  RandomInstance inst = MakeRandom(GetParam());
  OMQ omq = MakeOMQ(inst.onto, inst.query);
  auto e = PartialEnumerator::Create(omq, inst.world->db);
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  std::vector<ValueTuple> got;
  ValueTuple t;
  while ((*e)->Next(&t)) got.push_back(t);
  std::vector<ValueTuple> sorted = got;
  SortTuples(&sorted);
  for (size_t i = 1; i < sorted.size(); ++i) {
    ASSERT_NE(sorted[i - 1], sorted[i])
        << "duplicate answer, seed=" << GetParam()
        << " q=" << inst.query.ToString(inst.world->vocab);
  }
  std::vector<ValueTuple> want =
      BruteMinimalPartialAnswers(inst.query, (*e)->chase().db);
  EXPECT_TRUE(SameTupleSet(got, want))
      << "seed=" << GetParam() << " q=" << inst.query.ToString(inst.world->vocab)
      << " got=" << got.size() << " want=" << want.size();
}

TEST_P(PipelinePropertyTest, MultiWildcardEnumerationMatchesBrute) {
  RandomInstance inst = MakeRandom(GetParam());
  OMQ omq = MakeOMQ(inst.onto, inst.query);
  auto e = MultiWildcardEnumerator::Create(omq, inst.world->db);
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  std::vector<ValueTuple> got;
  ValueTuple t;
  while ((*e)->Next(&t)) got.push_back(t);
  std::vector<ValueTuple> sorted = got;
  SortTuples(&sorted);
  for (size_t i = 1; i < sorted.size(); ++i) {
    ASSERT_NE(sorted[i - 1], sorted[i])
        << "duplicate answer, seed=" << GetParam()
        << " q=" << inst.query.ToString(inst.world->vocab);
  }
  std::vector<ValueTuple> want =
      BruteMinimalMultiWildcardAnswers(inst.query, (*e)->chase().db);
  EXPECT_TRUE(SameTupleSet(got, want))
      << "seed=" << GetParam() << " q=" << inst.query.ToString(inst.world->vocab)
      << " got=" << got.size() << " want=" << want.size();
}

TEST_P(PipelinePropertyTest, AllTesterMatchesAnswerSet) {
  RandomInstance inst = MakeRandom(GetParam());
  OMQ omq = MakeOMQ(inst.onto, inst.query);
  auto tester = AllTester::Create(omq, inst.world->db);
  ASSERT_TRUE(tester.ok()) << tester.status().ToString();
  std::vector<ValueTuple> answers =
      BruteCompleteAnswers(inst.query, (*tester)->chase().db);
  TupleMap<char> set;
  for (const auto& a : answers) set.InsertOrGet(a.data(), a.size(), 1);
  // Positive candidates.
  for (const auto& a : answers) {
    EXPECT_TRUE((*tester)->Test(a)) << "seed=" << GetParam();
  }
  // Random negative candidates.
  std::vector<Value> dom;
  for (Value v : inst.world->db.ActiveDomain()) {
    if (IsConstant(v)) dom.push_back(v);
  }
  Rng rng(GetParam() ^ 0xabcdef);
  uint32_t arity = inst.query.arity();
  if (!dom.empty()) {
    for (int i = 0; i < 30; ++i) {
      ValueTuple cand;
      for (uint32_t p = 0; p < arity; ++p) cand.push_back(dom[rng.Below(dom.size())]);
      bool want = set.Find(cand.data(), cand.size()) != nullptr;
      EXPECT_EQ((*tester)->Test(cand), want) << "seed=" << GetParam();
    }
  }
}

TEST_P(PipelinePropertyTest, SingleTesterMatchesBrute) {
  RandomInstance inst = MakeRandom(GetParam());
  OMQ omq = MakeOMQ(inst.onto, inst.query);
  auto tester = SingleTester::Create(omq, inst.world->db);
  ASSERT_TRUE(tester.ok()) << tester.status().ToString();
  const Database& chased = (*tester)->chase().db;

  std::vector<ValueTuple> complete = BruteCompleteAnswers(inst.query, chased);
  TupleMap<char> complete_set;
  for (const auto& a : complete) complete_set.InsertOrGet(a.data(), a.size(), 1);
  std::vector<ValueTuple> minimal = BruteMinimalPartialAnswers(inst.query, chased);
  TupleMap<char> minimal_set;
  for (const auto& a : minimal) minimal_set.InsertOrGet(a.data(), a.size(), 1);
  std::vector<ValueTuple> multi = BruteMinimalMultiWildcardAnswers(inst.query, chased);
  TupleMap<char> multi_set;
  for (const auto& a : multi) multi_set.InsertOrGet(a.data(), a.size(), 1);

  // Positive checks.
  for (const auto& a : complete) {
    EXPECT_TRUE((*tester)->TestComplete(a)) << "seed=" << GetParam();
  }
  for (const auto& a : minimal) {
    EXPECT_TRUE((*tester)->TestMinimalPartial(a))
        << "seed=" << GetParam() << " cand=" << inst.world->Render(a)
        << " q=" << inst.query.ToString(inst.world->vocab);
  }
  for (const auto& a : multi) {
    EXPECT_TRUE((*tester)->TestMinimalMultiWildcard(a))
        << "seed=" << GetParam() << " cand=" << inst.world->Render(a)
        << " q=" << inst.query.ToString(inst.world->vocab);
  }
  // Random candidates with wildcards.
  std::vector<Value> dom;
  for (Value v : inst.world->db.ActiveDomain()) {
    if (IsConstant(v)) dom.push_back(v);
  }
  Rng rng(GetParam() ^ 0x1234);
  uint32_t arity = inst.query.arity();
  if (!dom.empty()) {
    for (int i = 0; i < 25; ++i) {
      ValueTuple cand;
      for (uint32_t p = 0; p < arity; ++p) {
        cand.push_back(rng.Chance(0.3) ? kStar : dom[rng.Below(dom.size())]);
      }
      bool want = minimal_set.Find(cand.data(), cand.size()) != nullptr;
      EXPECT_EQ((*tester)->TestMinimalPartial(cand), want)
          << "seed=" << GetParam() << " cand=" << inst.world->Render(cand)
          << " q=" << inst.query.ToString(inst.world->vocab);
    }
    for (int i = 0; i < 25; ++i) {
      ValueTuple cand;
      uint32_t next = 1;
      for (uint32_t p = 0; p < arity; ++p) {
        if (rng.Chance(0.35) && next <= 3) {
          uint32_t j = static_cast<uint32_t>(rng.Range(1, next));
          cand.push_back(MakeWildcard(j));
          if (j == next) ++next;
        } else {
          cand.push_back(dom[rng.Below(dom.size())]);
        }
      }
      if (!IsCanonicalMultiTuple(cand)) continue;
      bool want = multi_set.Find(cand.data(), cand.size()) != nullptr;
      EXPECT_EQ((*tester)->TestMinimalMultiWildcard(cand), want)
          << "seed=" << GetParam() << " cand=" << inst.world->Render(cand)
          << " q=" << inst.query.ToString(inst.world->vocab);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelinePropertyTest,
                         ::testing::Range<uint64_t>(0, 60));

// --- a second, gnarlier family: ternary relations, constants in queries,
// repeated answer variables, and guarded multi-atom TGD bodies ---

RandomInstance MakeRandomHard(uint64_t seed) {
  Rng rng(seed ^ 0x5eed);
  RandomInstance inst;
  inst.world = std::make_unique<World>();
  World& w = *inst.world;
  w.vocab.RelationId("A", 1);
  w.vocab.RelationId("R", 2);
  w.vocab.RelationId("S", 2);
  w.vocab.RelationId("T3", 3);

  int dom = static_cast<int>(rng.Range(2, 4));
  auto cname = [&](int i) { return "c" + std::to_string(i); };
  int facts = static_cast<int>(rng.Range(4, 14));
  for (int i = 0; i < facts; ++i) {
    switch (rng.Below(4)) {
      case 0:
        w.Load("A(" + cname(rng.Range(0, dom - 1)) + ")");
        break;
      case 1:
        w.Load("R(" + cname(rng.Range(0, dom - 1)) + "," +
               cname(rng.Range(0, dom - 1)) + ")");
        break;
      case 2:
        w.Load("S(" + cname(rng.Range(0, dom - 1)) + "," +
               cname(rng.Range(0, dom - 1)) + ")");
        break;
      default:
        w.Load("T3(" + cname(rng.Range(0, dom - 1)) + "," +
               cname(rng.Range(0, dom - 1)) + "," + cname(rng.Range(0, dom - 1)) +
               ")");
    }
  }
  // Guarded TGDs with multi-atom bodies covered by the ternary guard.
  std::string onto_text;
  if (rng.Chance(0.7)) onto_text += "T3(x, y, z), R(x, y) -> S(y, z)\n";
  if (rng.Chance(0.7)) onto_text += "T3(x, y, z) -> exists u. R(z, u), A(u)\n";
  if (rng.Chance(0.5)) onto_text += "A(x) -> exists y. R(x, y)\n";
  if (rng.Chance(0.5)) onto_text += "R(x, y) -> exists z. T3(x, y, z)\n";
  inst.onto = MustParseOntology(onto_text, &w.vocab);

  // Queries with constants and repeated answer variables.
  const char* pool[] = {
      "q(v0) :- R(v0, v1), A(v1)",
      "q(v0, v0) :- R(v0, v1)",
      "q(v0, v1) :- T3(v0, v1, v2)",
      "q(v0, v1, v2) :- T3(v0, v1, v2)",
      "q(v0) :- R(v0, 'c0')",
      "q(v0, v1) :- R(v0, v1), S(v1, v2), A(v2)",
      "q(v0, v2) :- T3(v0, v1, v2), A(v1)",
      "q(v0, v1) :- R(v0, v1), R(v1, v0)",
      "q(v0, v1) :- A(v0), S(v1, v1)",
  };
  for (int attempt = 0; attempt < 20; ++attempt) {
    CQ q = MustParseCQ(pool[rng.Below(std::size(pool))], &w.vocab);
    if (IsAcyclic(q) && IsFreeConnexAcyclic(q)) {
      inst.query = std::move(q);
      return inst;
    }
  }
  inst.query = MustParseCQ("q(v0) :- A(v0)", &w.vocab);
  return inst;
}

class HardPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HardPropertyTest, AllModesMatchBrute) {
  RandomInstance inst = MakeRandomHard(GetParam());
  OMQ omq = MakeOMQ(inst.onto, inst.query);

  auto ce = CompleteEnumerator::Create(omq, inst.world->db);
  ASSERT_TRUE(ce.ok()) << ce.status().ToString();
  std::vector<ValueTuple> complete;
  ValueTuple t;
  while ((*ce)->Next(&t)) complete.push_back(t);
  EXPECT_TRUE(SameTupleSet(complete,
                           BruteCompleteAnswers(inst.query, (*ce)->chase().db)))
      << "seed=" << GetParam() << " q=" << inst.query.ToString(inst.world->vocab);

  auto pe = PartialEnumerator::Create(omq, inst.world->db);
  ASSERT_TRUE(pe.ok()) << pe.status().ToString();
  std::vector<ValueTuple> partial;
  while ((*pe)->Next(&t)) partial.push_back(t);
  EXPECT_TRUE(SameTupleSet(
      partial, BruteMinimalPartialAnswers(inst.query, (*pe)->chase().db)))
      << "seed=" << GetParam() << " q=" << inst.query.ToString(inst.world->vocab);

  auto me = MultiWildcardEnumerator::Create(omq, inst.world->db);
  ASSERT_TRUE(me.ok()) << me.status().ToString();
  std::vector<ValueTuple> multi;
  while ((*me)->Next(&t)) multi.push_back(t);
  EXPECT_TRUE(SameTupleSet(
      multi, BruteMinimalMultiWildcardAnswers(inst.query, (*me)->chase().db)))
      << "seed=" << GetParam() << " q=" << inst.query.ToString(inst.world->vocab);
}

// The complete-answer testers over the same family: AllTester probes the
// row sets of its normalizations' nodes and SingleTester runs the Boolean
// Yannakakis test, both over relations that are sets only by construction,
// so constants and repeated answer variables are where a repeated or
// missing row would show.
TEST_P(HardPropertyTest, CompleteTestersMatchBrute) {
  RandomInstance inst = MakeRandomHard(GetParam());
  OMQ omq = MakeOMQ(inst.onto, inst.query);
  auto all = AllTester::Create(omq, inst.world->db);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  auto single = SingleTester::Create(omq, inst.world->db);
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  std::vector<ValueTuple> answers =
      BruteCompleteAnswers(inst.query, (*all)->chase().db);
  EXPECT_TRUE(SameTupleSet(
      answers, BruteCompleteAnswers(inst.query, (*single)->chase().db)));
  TupleMap<char> set;
  for (const auto& a : answers) set.InsertOrGet(a.data(), a.size(), 1);
  const std::string where =
      "seed=" + std::to_string(GetParam()) + " q=" +
      inst.query.ToString(inst.world->vocab);
  for (const auto& a : answers) {
    EXPECT_TRUE((*all)->Test(a)) << where << " cand=" << inst.world->Render(a);
    EXPECT_TRUE((*single)->TestComplete(a))
        << where << " cand=" << inst.world->Render(a);
  }
  std::vector<Value> dom;
  for (Value v : inst.world->db.ActiveDomain()) {
    if (IsConstant(v)) dom.push_back(v);
  }
  Rng rng(GetParam() ^ 0xfeed);
  const uint32_t arity = inst.query.arity();
  if (dom.empty()) return;
  for (int i = 0; i < 30; ++i) {
    ValueTuple cand;
    for (uint32_t p = 0; p < arity; ++p) cand.push_back(dom[rng.Below(dom.size())]);
    const bool want = set.Find(cand.data(), cand.size()) != nullptr;
    EXPECT_EQ((*all)->Test(cand), want)
        << where << " cand=" << inst.world->Render(cand);
    EXPECT_EQ((*single)->TestComplete(cand), want)
        << where << " cand=" << inst.world->Render(cand);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HardPropertyTest,
                         ::testing::Range<uint64_t>(0, 80));

}  // namespace
}  // namespace omqe
