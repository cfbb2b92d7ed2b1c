#include <gtest/gtest.h>

#include "chase/chase.h"
#include "chase/estimate.h"
#include "chase/query_directed.h"
#include "eval/brute.h"
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

TEST(ChaseTest, AdaptiveReservationMatchesAndReducesRehashes) {
  // Chase-created relations (S, T are not in the input) would otherwise
  // grow their dedup tables by doubling; the adaptive round-boundary
  // reservation must eliminate most of that without changing the result.
  auto build = [](World* w) {
    w->vocab.ReserveConstants(5000);
    w->db.ReserveFacts(w->vocab.RelationId("A", 1), 4096);
    for (int i = 0; i < 4096; ++i) {
      Value v[1] = {w->C("a" + std::to_string(i))};
      w->db.AddFact(w->vocab.FindRelation("A"), v, 1);
    }
  };
  // The U -> V rule never fires (no U facts); V must not be reserved for
  // the delta size — the first-round estimate is bounded by the rows of the
  // relations actually feeding each head relation.
  const char* kOnto = R"(
    A(x) -> exists y. S(x, y), T(y, x)
    U(x) -> exists y. V(x, y)
  )";
  World on_world, off_world;
  Ontology onto_on = on_world.Onto(kOnto);
  Ontology onto_off = off_world.Onto(kOnto);
  build(&on_world);
  build(&off_world);

  ChaseOptions on;
  on.adaptive_reserve = true;
  ChaseOptions off = on;
  off.adaptive_reserve = false;
  auto with = RunChase(on_world.db, onto_on, on);
  auto without = RunChase(off_world.db, onto_off, off);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());

  const Database& da = (*with)->db;
  const Database& db = (*without)->db;
  ASSERT_EQ(da.TotalFacts(), db.TotalFacts());
  for (RelId r = 0; r < da.NumRelationSlots(); ++r) {
    ASSERT_EQ(da.NumRows(r), db.NumRows(r));
    for (uint32_t row = 0; row < da.NumRows(r); ++row) {
      ASSERT_TRUE(db.Contains(r, da.Row(r, row), da.Arity(r)));
    }
  }

  auto rehashes = [](const Database& d, RelId r) {
    return d.DedupStats(r).rehashes;
  };
  RelId s = on_world.vocab.FindRelation("S");
  RelId t = on_world.vocab.FindRelation("T");
  // Without reservation: ~log2(4096/12) doubling rehashes per relation.
  EXPECT_GE(rehashes(db, s), 5u);
  // With the round-boundary estimate the bulk of the growth is pre-sized.
  EXPECT_LE(rehashes(da, s), 1u);
  EXPECT_LE(rehashes(da, t), 1u);
  // The unfed head relation kept its (empty) default-size table.
  RelId v = on_world.vocab.FindRelation("V");
  EXPECT_EQ(da.NumRows(v), 0u);
  EXPECT_LE(da.DedupStats(v).capacity, 16u);
}

TEST(ChaseTest, FirstRoundReservationUsesEstimatorBound) {
  // Guarded join body: A(x, y) guards {x, y}, so the estimator bounds the
  // first-round creations of S by |A| — the old feed-sum heuristic would
  // have reserved |A| + |B| (B is made much larger to expose the gap).
  World w;
  w.vocab.ReserveConstants(24000);
  RelId a = w.vocab.RelationId("A", 2);
  RelId b = w.vocab.RelationId("B", 1);
  w.db.ReserveFacts(a, 4096);
  w.db.ReserveFacts(b, 16384);
  for (int i = 0; i < 4096; ++i) {
    Value t[2] = {w.C("x" + std::to_string(i)), w.C("y" + std::to_string(i % 64))};
    w.db.AddFact(a, t, 2);
  }
  // B shares the 64 y-values of A plus filler so |B| = 16384.
  for (int i = 0; i < 16384; ++i) {
    Value t[1] = {w.C(i < 64 ? "y" + std::to_string(i) : "b" + std::to_string(i))};
    w.db.AddFact(b, t, 1);
  }
  Ontology onto = w.Onto("A(x, y), B(y) -> exists z. S(x, z)");

  // The estimator's per-relation first-round bound: min over guard counts.
  std::vector<size_t> bounds = FirstRoundCreationBounds(w.db, onto);
  RelId s = w.vocab.FindRelation("S");
  ASSERT_LT(s, bounds.size());
  EXPECT_EQ(bounds[s], 4096u);

  ChaseOptions opts;
  opts.adaptive_reserve = true;
  auto result = RunChase(w.db, onto, opts);
  ASSERT_TRUE(result.ok());
  const Database& chased = (*result)->db;
  EXPECT_EQ(chased.NumRows(s), 4096u);
  // Small guarded case: the estimator-sized reservation keeps the dedup
  // table at <=1 rehash, and its capacity reflects the 4096-row bound, not
  // the 20480-row feed sum (Reserve(4096) -> 8192 slots; a feed-sum
  // reservation would have sized it to 32768).
  EXPECT_LE(chased.DedupStats(s).rehashes, 1u);
  EXPECT_LE(chased.DedupStats(s).capacity, 8192u);
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
// Round-boundary reservation arithmetic (chase/estimate.h).
// ---------------------------------------------------------------------------

TEST(ChaseEstimateTest, ScaleRoundGrowthMatchesExactFormulaInRange) {
  // In-range inputs reproduce growth * delta / prev + 1 exactly.
  EXPECT_EQ(ScaleRoundGrowth(10, 20, 5), 41u);
  EXPECT_EQ(ScaleRoundGrowth(0, 1000, 10), 1u);
  EXPECT_EQ(ScaleRoundGrowth(7, 0, 3), 1u);
  EXPECT_EQ(ScaleRoundGrowth(1, 1, 1), 2u);
  // prev_delta == 0: carry the growth forward unscaled.
  EXPECT_EQ(ScaleRoundGrowth(123, 456, 0), 123u);
}

TEST(ChaseEstimateTest, ScaleRoundGrowthSaturatesInsteadOfWrapping) {
  // The pre-fix expression growth * delta / prev + 1 wraps the product for
  // adversarially large rounds; a wrapped product then UNDER-reserves (the
  // quotient of a tiny wrapped value), which is exactly the pathology the
  // reservation exists to avoid. The fixed arithmetic must stay monotone:
  // never below the honest quotient, saturating at SIZE_MAX.
  const size_t half = SIZE_MAX / 2;
  // 2^63 * 8 wraps in size_t; divide-first gives (2^63/2)*8 -> saturates.
  EXPECT_EQ(ScaleRoundGrowth(half, 8, 2), SIZE_MAX);
  // Exact product 2^70 wraps; divide-first recovers 2^50 + 1 exactly.
  EXPECT_EQ(ScaleRoundGrowth(size_t{1} << 40, size_t{1} << 30, size_t{1} << 20),
            (size_t{1} << 50) + 1);
  // Sanity against the naive expression where it is still exact.
  size_t g = 1u << 20, d = 1u << 10, p = 1u << 5;
  EXPECT_EQ(ScaleRoundGrowth(g, d, p), g * d / p + 1);
  // Never returns a small wrapped value on huge inputs.
  EXPECT_GE(ScaleRoundGrowth(SIZE_MAX, SIZE_MAX, 3), SIZE_MAX / 3);
}

// ---------------------------------------------------------------------------
// Delta rounds: fact budget, stats invariants, dedup-table growth.
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
/// (A(x) and B(x)), so the per-round and global dedup both drop repeats.
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

/// Each derived round multiplies the instance eightfold from a 4-fact seed,
/// so the application-dedup table must grow several-fold per round.
struct BranchingWorld : World {
  Ontology onto;
  BranchingWorld() {
    onto = Onto(
        "P(x) -> exists y1, y2, y3, y4, y5, y6, y7, y8. E(x, y1), E(x, y2), "
        "E(x, y3), E(x, y4), E(x, y5), E(x, y6), E(x, y7), E(x, y8)\n"
        "E(x, y) -> P(y)");
    Load("P(s0) P(s1) P(s2) P(s3)");
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
  // every fired application was first a candidate.
  EXPECT_EQ(s.nulls_invented, (*r)->db.NullHighWater());
  EXPECT_GE(s.candidates, s.applied);
  EXPECT_GT(s.applied, 0u);
  EXPECT_GT(s.match_nanos, 0u);
  EXPECT_GT(s.apply_nanos, 0u);
}

TEST(ChaseTest, PerRoundReservationPinsAppliedTableRehashes) {
  // The contract of the per-round applied_ reservation: the
  // application-dedup table grows at most once per delta round. Without
  // ReserveForRound's sizing, the branching world's doubling table
  // rehashes about three times per eightfold round.
  auto check = [](const World& w, const Ontology& onto, uint32_t depth) {
    ChaseOptions opts;
    opts.null_depth = depth;
    auto r = RunChase(w.db, onto, opts);
    ASSERT_TRUE(r.ok());
    const ChaseStats& s = (*r)->stats;
    ASSERT_GT(s.rounds, 0u);
    EXPECT_LE(s.applied_rehashes, s.rounds);
  };
  InventionDenseWorld dense;
  check(dense, dense.onto, 3);
  BranchingWorld branching;
  check(branching, branching.onto, 4);
}

}  // namespace
}  // namespace omqe
