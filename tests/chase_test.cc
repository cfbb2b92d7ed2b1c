#include <gtest/gtest.h>

#include "chase/chase.h"
#include "chase/estimate.h"
#include "chase/query_directed.h"
#include "eval/brute.h"
#include "workload/chains.h"
#include "workload/office.h"
#include "test_util.h"

namespace omqe {
namespace {

using testing::World;

// The running example of the paper (Example 1.1).
struct OfficeExample : World {
  Ontology onto;
  OfficeExample() {
    onto = Onto(R"(
      Researcher(x) -> exists y. HasOffice(x, y)
      HasOffice(x, y) -> Office(y)
      Office(x) -> exists y. InBuilding(x, y)
    )");
    Load(R"(
      Researcher(mary) Researcher(john) Researcher(mike)
      HasOffice(mary, room1) HasOffice(john, room4)
      InBuilding(room1, main1)
    )");
  }
};

TEST(ChaseTest, Example11Shape) {
  OfficeExample ex;
  ChaseOptions opts;
  opts.null_depth = 4;
  auto result = RunChase(ex.db, ex.onto, opts);
  ASSERT_TRUE(result.ok());
  const ChaseResult& ch = **result;
  // Database part: original facts + Office(room1), Office(room4) derived.
  RelId office = ex.vocab.FindRelation("Office");
  Value r1[1] = {ex.C("room1")};
  Value r4[1] = {ex.C("room4")};
  EXPECT_TRUE(ch.db.Contains(office, r1, 1));
  EXPECT_TRUE(ch.db.Contains(office, r4, 1));
  // mike got an anonymous office; every office is in an anonymous building.
  EXPECT_TRUE(ch.db.HasNulls());
  EXPECT_FALSE(ch.truncated);  // this chase is finite within the cap
  EXPECT_GT(ch.blocks.size(), 0u);
  // Each block hangs off a null-free source fact.
  for (const ChaseBlock& b : ch.blocks) {
    EXPECT_TRUE(b.has_source);
    for (Value v : b.source_tuple) EXPECT_TRUE(IsConstant(v));
  }
  // db_part counts only null-free facts.
  size_t with_null = 0;
  for (RelId r = 0; r < ch.db.NumRelationSlots(); ++r) {
    for (uint32_t row = 0; row < ch.db.NumRows(r); ++row) {
      const Value* t = ch.db.Row(r, row);
      for (uint32_t i = 0; i < ch.db.Arity(r); ++i) {
        if (IsNull(t[i])) {
          ++with_null;
          break;
        }
      }
    }
  }
  EXPECT_EQ(ch.db_part_facts + with_null, ch.db.TotalFacts());
}

TEST(ChaseTest, ObliviousAppliesEvenWhenSatisfied) {
  // Oblivious chase: John already has an office, but the Researcher TGD
  // still fires and creates an anonymous one.
  World w;
  Ontology onto = w.Onto("Researcher(x) -> exists y. HasOffice(x, y)");
  w.Load("Researcher(john) HasOffice(john, room4)");
  auto result = RunChase(w.db, onto, ChaseOptions());
  ASSERT_TRUE(result.ok());
  RelId has = w.vocab.FindRelation("HasOffice");
  EXPECT_EQ((*result)->db.NumRows(has), 2u);  // room4 + one null
}

TEST(ChaseTest, DatalogSaturationMatchesHorn) {
  World w;
  Ontology onto = w.Onto(R"(
    E(x, y) -> Reach(x, y)
    Reach2(x, y), E(y, z) -> Reach2x(x)
    A(x) -> B(x)
    B(x) -> C(x)
  )");
  w.Load("E(a,b) E(b,c) A(a)");
  auto chase = RunChase(w.db, onto, ChaseOptions());
  ASSERT_TRUE(chase.ok());
  auto horn = HornDatalogSaturation(w.db, onto, &w.vocab);
  // Same database part (the ontology is existential-free and guarded rules
  // only; unguarded rules are skipped by both? Reach2 chain is unguarded ->
  // use only guarded rules here).
  EXPECT_EQ((*chase)->db.TotalFacts(), horn->TotalFacts());
  RelId c = w.vocab.FindRelation("C");
  Value a[1] = {w.C("a")};
  EXPECT_TRUE(horn->Contains(c, a, 1));
}

TEST(ChaseTest, DepthCapTruncatesInfiniteChase) {
  // Succ(x,y) -> exists z. Succ(y,z): infinite chase.
  World w;
  Ontology onto = w.Onto("Succ(x, y) -> exists z. Succ(y, z)");
  w.Load("Succ(a, b)");
  ChaseOptions opts;
  opts.null_depth = 3;
  auto result = RunChase(w.db, onto, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE((*result)->truncated);
  RelId succ = w.vocab.FindRelation("Succ");
  EXPECT_EQ((*result)->db.NumRows(succ), 4u);  // a->b plus 3 null levels
}

TEST(ChaseTest, DbPartSaturationThroughNulls) {
  // Deriving a database-part fact requires descending into the null part:
  // A(x) -> exists y. R(x, y), B(y); R(x, y), B(y) -> C(x).
  World w;
  Ontology onto = w.Onto(R"(
    A(x) -> exists y. R(x, y), B(y)
    R(x, y), B(y) -> C(x)
  )");
  w.Load("A(a)");
  auto result = RunChase(w.db, onto, ChaseOptions());
  ASSERT_TRUE(result.ok());
  RelId c = w.vocab.FindRelation("C");
  Value a[1] = {w.C("a")};
  EXPECT_TRUE((*result)->db.Contains(c, a, 1));
}

TEST(ChaseTest, TrueBodyTgdFiresOnce) {
  World w;
  w.vocab.RelationId("U", 2);
  Ontology onto = w.Onto("true -> exists x, y. U(x, y)");
  w.Load("A(a)");
  auto result = RunChase(w.db, onto, ChaseOptions());
  ASSERT_TRUE(result.ok());
  RelId u = w.vocab.FindRelation("U");
  EXPECT_EQ((*result)->db.NumRows(u), 1u);
  // The block for the all-null fact has no source.
  bool found_sourceless = false;
  for (const ChaseBlock& b : (*result)->blocks) found_sourceless |= !b.has_source;
  EXPECT_TRUE(found_sourceless);
}

TEST(ChaseTest, BlockMembershipIsConsistent) {
  OfficeExample ex;
  auto result = RunChase(ex.db, ex.onto, ChaseOptions());
  ASSERT_TRUE(result.ok());
  const ChaseResult& ch = **result;
  // Every fact with a null is recorded in exactly the block of its nulls.
  for (uint32_t b = 0; b < ch.blocks.size(); ++b) {
    for (const FactRef& f : ch.blocks[b].facts) {
      const Value* t = ch.db.Row(f);
      bool has_block_null = false;
      for (uint32_t i = 0; i < ch.db.Arity(f.rel); ++i) {
        if (IsNull(t[i])) {
          EXPECT_EQ(ch.null_block[NullIndex(t[i])], b);
          has_block_null = true;
        }
      }
      EXPECT_TRUE(has_block_null);
    }
  }
}

TEST(ChaseEstimateTest, BoundsOfficeExampleTightly) {
  OfficeExample ex;
  ChaseEstimateOptions opts;
  opts.null_depth = 4;
  ChaseEstimate est = EstimateChaseSize(ex.db, ex.onto, opts);
  EXPECT_TRUE(est.converged);
  EXPECT_FALSE(est.exceeds_budget);
  // The bound must dominate the actual capped chase...
  ChaseOptions chase_opts;
  chase_opts.null_depth = 4;
  auto result = RunChase(ex.db, ex.onto, chase_opts);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(est.fact_bound, (*result)->db.TotalFacts());
  EXPECT_GE(est.null_bound, static_cast<size_t>((*result)->db.NullHighWater()));
  // ...while staying within a small constant factor on this linear chain
  // (6 input facts chase to ~17; a sound estimate should not be orders of
  // magnitude off).
  EXPECT_LE(est.fact_bound, 100u);
}

TEST(ChaseEstimateTest, FlagsBranchingBlowupWithoutRunningChase) {
  // Two existential TGDs feeding each other double the frontier each depth
  // level — the shape behind guarded_random seed 2208 (7 input facts
  // grinding toward the 200M-fact budget). The estimator must flag it from
  // the structure alone.
  World w;
  Ontology onto = w.Onto(R"(
    P(x) -> exists y, z. Q(x, y), Q(x, z), P(y), P(z)
  )");
  w.Load("P(a)");
  ChaseEstimateOptions opts;
  opts.null_depth = 24;
  opts.budget = 1u << 20;
  ChaseEstimate est = EstimateChaseSize(w.db, onto, opts);
  EXPECT_TRUE(est.exceeds_budget);
}

TEST(ChaseEstimateTest, DominatesExistentialChainsThroughNullFreeHeads) {
  // Every A_i head atom is null-free (frontier-only), so the real chase
  // fires the whole chain at null depth 1 REGARDLESS of the cap — a
  // per-depth wave count shorter than the chain would undercount. The
  // class-stratified recurrence must dominate the chase even with a cap
  // far below the chain length.
  World w;
  Ontology onto = w.Onto(R"(
    A0(x) -> exists y. N1(x, y), A1(x)
    A1(x) -> exists y. N2(x, y), A2(x)
    A2(x) -> exists y. N3(x, y), A3(x)
    A3(x) -> exists y. N4(x, y), A4(x)
    A4(x) -> exists y. N5(x, y), A5(x)
  )");
  w.Load("A0(a) A0(b)");
  ChaseEstimateOptions opts;
  opts.null_depth = 2;  // far below the chain length of 5
  ChaseEstimate est = EstimateChaseSize(w.db, onto, opts);
  EXPECT_TRUE(est.converged);

  ChaseOptions chase_opts;
  chase_opts.null_depth = 2;
  auto result = RunChase(w.db, onto, chase_opts);
  ASSERT_TRUE(result.ok());
  // The chase reaches the end of the chain (all nulls are depth 1).
  RelId a5 = w.vocab.FindRelation("A5");
  EXPECT_EQ((*result)->db.NumRows(a5), 2u);
  EXPECT_GE(est.fact_bound, (*result)->db.TotalFacts());
}

TEST(ChaseEstimateTest, DominatesUnguardedBodiesSpanningClasses) {
  // B facts exist only with depth-1 nulls while C facts are all null-free,
  // so a per-class product would see zero joint matches for the unguarded
  // body B(x, y), C(z); the totals-based bound must still dominate the
  // |B| x |C| cross product the chase actually materializes.
  World w;
  Ontology onto = w.Onto(R"(
    A(x) -> exists y. B(x, y)
    B(x, y), C(z) -> D(x, z)
  )");
  for (int i = 0; i < 50; ++i) w.Load("A(a" + std::to_string(i) + ")");
  for (int i = 0; i < 40; ++i) w.Load("C(c" + std::to_string(i) + ")");
  ChaseEstimateOptions opts;
  opts.null_depth = 4;
  ChaseEstimate est = EstimateChaseSize(w.db, onto, opts);
  EXPECT_TRUE(est.converged);

  ChaseOptions chase_opts;
  chase_opts.null_depth = 4;
  auto result = RunChase(w.db, onto, chase_opts);
  ASSERT_TRUE(result.ok());
  RelId d_rel = w.vocab.FindRelation("D");
  EXPECT_EQ((*result)->db.NumRows(d_rel), 50u * 40u);
  EXPECT_GE(est.fact_bound, (*result)->db.TotalFacts());
}

TEST(ChaseEstimateTest, DepthCapBoundsLinearRecursion) {
  // Person -> Parent -> Person recurses forever uncapped, but each level
  // adds only one null per person: with the depth cap the estimate is small
  // and converged, so admission control lets it through.
  World w;
  Ontology onto = w.Onto(R"(
    Person(x) -> exists y. Parent(x, y)
    Parent(x, y) -> Person(y)
  )");
  w.Load("Person(a) Person(b)");
  ChaseEstimateOptions opts;
  opts.null_depth = 6;
  ChaseEstimate est = EstimateChaseSize(w.db, onto, opts);
  EXPECT_TRUE(est.converged);
  EXPECT_FALSE(est.exceeds_budget);
  EXPECT_LE(est.fact_bound, 200u);

  ChaseOptions chase_opts;
  chase_opts.null_depth = 6;
  auto result = RunChase(w.db, onto, chase_opts);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(est.fact_bound, (*result)->db.TotalFacts());
}

TEST(QueryDirectedChaseTest, AdaptiveDepthFindsStableDbPart) {
  World w;
  Ontology onto = w.Onto(R"(
    A(x) -> exists y. R(x, y), B(y)
    B(y) -> exists z. R(y, z), B(z)
    R(x, y), B(y) -> Good(x)
  )");
  w.Load("A(a)");
  CQ q = w.Query("q(x) :- Good(x)");
  auto result = QueryDirectedChase(w.db, onto, q);
  ASSERT_TRUE(result.ok());
  RelId good = w.vocab.FindRelation("Good");
  Value a[1] = {w.C("a")};
  EXPECT_TRUE((*result)->db.Contains(good, a, 1));
  // Infinite chase: necessarily truncated, but the db part stabilized.
  EXPECT_TRUE((*result)->truncated);
}

TEST(QueryDirectedChaseTest, MinDepthCoversQuerySize) {
  World w;
  CQ q = w.Query("q(x) :- R(x, a), S(a, b), T(b, c)");
  EXPECT_GE(MinNullDepthFor(q), 4u);
}

TEST(ChaseTest, EmptyOntologyIsIdentity) {
  World w;
  w.Load("R(a,b) S(b)");
  Ontology empty;
  auto result = RunChase(w.db, empty, ChaseOptions());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->db.TotalFacts(), 2u);
  EXPECT_FALSE((*result)->truncated);
  EXPECT_EQ((*result)->blocks.size(), 0u);
}

TEST(ChaseTest, InputNullsAreAllowed) {
  // Lemma A.2-style use: chasing an instance that already contains nulls.
  World w;
  RelId r = w.vocab.RelationId("R", 2);
  Value n = w.db.FreshNull();
  Value t[2] = {w.C("a"), n};
  w.db.AddFact(r, t, 2);
  Ontology onto = w.Onto("R(x, y) -> exists z. R(y, z)");
  auto result = RunChase(w.db, onto, ChaseOptions());
  ASSERT_TRUE(result.ok());
  EXPECT_GT((*result)->db.NumRows(r), 1u);
}

TEST(ChaseTest, RestrictedModeSkipsSatisfiedHeads) {
  // John already has an office: the restricted chase does not invent a
  // second one; the oblivious chase does.
  World w;
  Ontology onto = w.Onto("Researcher(x) -> exists y. HasOffice(x, y)");
  w.Load("Researcher(john) HasOffice(john, room4) Researcher(mike)");
  ChaseOptions restricted;
  restricted.mode = ChaseMode::kRestricted;
  auto r = RunChase(w.db, onto, restricted);
  ASSERT_TRUE(r.ok());
  RelId has = w.vocab.FindRelation("HasOffice");
  EXPECT_EQ((*r)->db.NumRows(has), 2u);  // room4 + mike's null only

  auto o = RunChase(w.db, onto, ChaseOptions());
  ASSERT_TRUE(o.ok());
  EXPECT_EQ((*o)->db.NumRows(has), 3u);
}

TEST(ChaseTest, RestrictedModeTerminatesWhereObliviousDoesNot) {
  // R(x,y) -> exists z. R(y,z): on a cycle the restricted chase stops
  // immediately (the head is satisfied by the cycle itself).
  World w;
  Ontology onto = w.Onto("R(x, y) -> exists z. R(y, z)");
  w.Load("R(a, b) R(b, a)");
  ChaseOptions restricted;
  restricted.mode = ChaseMode::kRestricted;
  restricted.null_depth = 10;
  auto r = RunChase(w.db, onto, restricted);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->db.TotalFacts(), 2u);
  EXPECT_FALSE((*r)->truncated);
}

TEST(ChaseTest, RestrictedModePreservesCertainAnswers) {
  // Both chase modes are universal models: certain answers agree.
  World w;
  Ontology onto = w.Onto(R"(
    Researcher(x) -> exists y. HasOffice(x, y)
    HasOffice(x, y) -> Office(y)
    Office(x) -> exists y. InBuilding(x, y)
  )");
  w.Load(R"(
    Researcher(mary) Researcher(john)
    HasOffice(mary, room1) InBuilding(room1, main1)
  )");
  CQ q = w.Query("q(x1, x2, x3) :- HasOffice(x1, x2), InBuilding(x2, x3)");
  ChaseOptions restricted;
  restricted.mode = ChaseMode::kRestricted;
  auto r = RunChase(w.db, onto, restricted);
  auto o = RunChase(w.db, onto, ChaseOptions());
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(o.ok());
  EXPECT_TRUE(testing::SameTupleSet(BruteCompleteAnswers(q, (*r)->db),
                                    BruteCompleteAnswers(q, (*o)->db)));
  EXPECT_TRUE(testing::SameTupleSet(BruteMinimalPartialAnswers(q, (*r)->db),
                                    BruteMinimalPartialAnswers(q, (*o)->db)));
  EXPECT_LT((*r)->db.TotalFacts(), (*o)->db.TotalFacts());
}

// ---------------------------------------------------------------------------
// Delta rounds: fact budget and stats invariants.
// ---------------------------------------------------------------------------

namespace {

/// 600 researchers, half with an office: a 900-fact seed whose first
/// derived round creates hundreds of facts.
struct WideWorld : World {
  Ontology onto;
  WideWorld() {
    onto = Onto(R"(
      Researcher(x) -> exists y. HasOffice(x, y)
      HasOffice(x, y) -> Office(y)
      Office(x) -> exists y. InBuilding(x, y)
      InBuilding(x, y) -> Building(y)
    )");
    std::string facts;
    for (int i = 0; i < 600; ++i) {
      facts += "Researcher(p" + std::to_string(i) + ") ";
      if (i % 2 == 0) {
        facts += "HasOffice(p" + std::to_string(i) + ", r" +
                 std::to_string(i / 2) + ") ";
      }
    }
    Load(facts);
  }
};

/// Invention-dense ontology: multi-existential heads, head conjunctions,
/// blocks joined through body nulls, recursion that outruns the depth cap,
/// and applications reachable from two delta atoms of the same seed round
/// (A(x) and B(x)), so one round's candidates repeat and the global dedup
/// drops the repeats.
struct InventionDenseWorld : World {
  Ontology onto;
  InventionDenseWorld() {
    onto = Onto(R"(
      A(x), B(x) -> exists y, z. C(x, y, z), Link(y, z)
      C(x, y, z) -> exists w. D(y, w)
      A(x) -> exists y. D(x, y)
      D(x, y) -> E(y)
      E(x) -> exists y. D(x, y)
    )");
    std::string facts;
    for (int i = 0; i < 400; ++i) {
      facts += "A(a" + std::to_string(i) + ") B(a" + std::to_string(i) + ") ";
    }
    Load(facts);
  }
};

}  // namespace

TEST(ChaseTest, FactBudgetAbortsMidRound) {
  WideWorld w;
  ChaseOptions opts;
  // Big enough for the 900-fact seed, too small for the first derived
  // round, so the abort fires inside a round's apply phase.
  opts.max_facts = 1000;
  auto r = RunChase(w.db, w.onto, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(ChaseTest, ChaseStatsInvariantsHold) {
  InventionDenseWorld w;
  ChaseOptions opts;
  opts.null_depth = 3;
  auto r = RunChase(w.db, w.onto, opts);
  ASSERT_TRUE(r.ok());
  // The D/E recursion outruns the cap, so cap suppression runs too.
  EXPECT_TRUE((*r)->truncated);
  const ChaseStats& s = (*r)->stats;
  EXPECT_GT(s.rounds, 0u);
  // No input nulls, so inventions account for the whole null space, and
  // every fired application was first a candidate. The A(x), B(x) body is
  // reached from both of its atoms in the seed round, so some candidates
  // repeat.
  EXPECT_EQ(s.nulls_invented, (*r)->db.NullHighWater());
  EXPECT_GT(s.candidates, s.applied);
  EXPECT_GT(s.applied, 0u);
  EXPECT_GT(s.match_nanos, 0u);
  EXPECT_GT(s.apply_nanos, 0u);
}

TEST(ChaseTest, SingleAtomBodyApplicationsAreDiscoveredOnce) {
  // Every body has one atom: a repeated-variable atom, two TGDs over R, and
  // T feeding back into R facts, some of which exist already. Each fact
  // enters the delta once and gives a one-atom body at most one
  // assignment, so an oblivious chase that is not truncated fires every
  // candidate: the chase keeps no dedup entry for these applications.
  World w;
  Ontology onto = w.Onto(R"(
    R(x, x) -> exists y. S(x, y)
    R(x, y) -> T(y, x)
    T(x, y) -> R(x, y)
    S(x, y) -> P(y)
  )");
  w.Load("R(a, a) R(a, b) R(b, c) R(c, c) R(c, b) T(d, a)");
  auto r = RunChase(w.db, onto, ChaseOptions());
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE((*r)->truncated);
  const ChaseStats& s = (*r)->stats;
  EXPECT_GT(s.applied, 0u);
  EXPECT_EQ(s.candidates, s.applied);
  // R ends as its symmetric closure with T(d, a)'s pair: 8 facts. Only
  // R(a, a) and R(c, c) match R(x, x), inventing one null each.
  RelId rel_r = w.vocab.FindRelation("R");
  EXPECT_EQ((*r)->db.NumRows(rel_r), 8u);
  EXPECT_EQ(s.nulls_invented, 2u);
}

// ---------------------------------------------------------------------------
// Determinism: a ChaseResult is a pure function of (input, ontology,
// options). How the chase sizes or grows its tables must never show in it,
// so the digests below only change with the chase's semantics.
// ---------------------------------------------------------------------------

/// FNV-1a over everything a ChaseResult exposes except its timing and
/// counter stats: every relation's rows in order, null_block, the blocks
/// (source, source tuple, fact refs), truncated, cap_used and db_part_facts.
/// (To re-record after an intended change, print it with std::hex.)
uint64_t ChaseDigest(const ChaseResult& r) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  const Database& db = r.db;
  mix(db.NumRelationSlots());
  for (RelId rel = 0; rel < db.NumRelationSlots(); ++rel) {
    mix(db.NumRows(rel));
    for (uint32_t row = 0; row < db.NumRows(rel); ++row) {
      const Value* t = db.Row(rel, row);
      for (uint32_t i = 0; i < db.Arity(rel); ++i) mix(t[i]);
    }
  }
  mix(r.null_block.size());
  for (uint32_t b : r.null_block) mix(b);
  mix(r.blocks.size());
  for (const ChaseBlock& block : r.blocks) {
    mix(block.has_source);
    mix(block.source_rel);
    mix(block.source_tuple.size());
    for (Value v : block.source_tuple) mix(v);
    mix(block.facts.size());
    for (const FactRef& f : block.facts) {
      mix(f.rel);
      mix(f.row);
    }
  }
  mix(r.truncated);
  mix(r.cap_used);
  mix(r.db_part_facts);
  return h;
}

TEST(ChaseDigestTest, OfficeQueryDirectedChaseIsPinned) {
  World w;
  OfficeParams params;
  params.researchers = 2000;
  GenerateOffice(params, &w.db);
  OMQ omq = OfficeOMQ(&w.vocab);
  auto r = QueryDirectedChase(w.db, omq.ontology, omq.query);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(ChaseDigest(**r), 0xdd5a088ceafeaeb8ULL);
}

TEST(ChaseDigestTest, ChainQueryDirectedChaseIsPinned) {
  World w;
  ChainParams params;
  params.length = 3;
  params.base_size = 1000;
  params.fanout = 3;
  params.anonymous_fraction = 0.2;
  GenerateChain(params, &w.db);
  Ontology onto = ChainOntology(&w.vocab, params.length);
  CQ q = ChainQuery(&w.vocab, params.length);
  auto r = QueryDirectedChase(w.db, onto, q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(ChaseDigest(**r), 0x0377e59f5b70696dULL);
}

TEST(ChaseDigestTest, InventionDenseChaseIsPinnedInBothModes) {
  // No head of this ontology is ever satisfied before it fires, so the
  // restricted chase runs its head checks and lands on the same result.
  InventionDenseWorld w;
  ChaseOptions opts;
  opts.null_depth = 3;
  auto oblivious = RunChase(w.db, w.onto, opts);
  ASSERT_TRUE(oblivious.ok());
  EXPECT_EQ(ChaseDigest(**oblivious), 0xa620cadf6f8086f0ULL);
  opts.mode = ChaseMode::kRestricted;
  auto restricted = RunChase(w.db, w.onto, opts);
  ASSERT_TRUE(restricted.ok());
  EXPECT_EQ(ChaseDigest(**restricted), 0xa620cadf6f8086f0ULL);
}

TEST(ChaseDigestTest, RestrictedChaseSkippingSatisfiedHeadsIsPinned) {
  // Half the researchers already have an office, so the restricted chase
  // skips their HasOffice applications and differs from the oblivious one.
  WideWorld w;
  ChaseOptions opts;
  opts.mode = ChaseMode::kRestricted;
  auto r = RunChase(w.db, w.onto, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(ChaseDigest(**r), 0x51e14e3ad2acfde6ULL);
  opts.mode = ChaseMode::kOblivious;
  auto o = RunChase(w.db, w.onto, opts);
  ASSERT_TRUE(o.ok());
  EXPECT_EQ(ChaseDigest(**o), 0xf780fd51bd23ccb3ULL);
}

}  // namespace
}  // namespace omqe
