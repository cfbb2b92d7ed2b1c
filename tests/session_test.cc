// Session independence for the prepared-query engine: one PreparedOMQ, many
// EnumerationSession / CompleteSession cursors. Each session must produce
// exactly the seed answer set regardless of how the sessions are
// interleaved, staggered, reset, or spread across threads — the paper's
// ≻db pruning mutates per-session overlay state only, never the shared
// artifact. The threaded tests are the payload of the tsan preset.
#include <gtest/gtest.h>

#include <thread>

#include "core/complete_enum.h"
#include "core/complete_first.h"
#include "core/multiwild_enum.h"
#include "core/partial_enum.h"
#include "core/prepared.h"
#include "workload/chains.h"
#include "workload/office.h"
#include "test_util.h"

namespace omqe {
namespace {

using testing::SameTupleSet;
using testing::World;

std::vector<ValueTuple> Drain(EnumerationSession& s) {
  std::vector<ValueTuple> out;
  ValueTuple t;
  while (s.Next(&t)) out.push_back(t);
  return out;
}

std::vector<ValueTuple> Drain(CompleteSession& s) {
  std::vector<ValueTuple> out;
  ValueTuple t;
  while (s.Next(&t)) out.push_back(t);
  return out;
}

/// The paper's office example plus one prepared query over it.
struct PreparedOffice : World {
  OMQ omq;
  std::shared_ptr<const PreparedOMQ> prepared;

  explicit PreparedOffice(bool for_complete = true, bool for_partial = true) {
    Ontology onto = Onto(R"(
      Researcher(x) -> exists y. HasOffice(x, y)
      HasOffice(x, y) -> Office(y)
      Office(x) -> exists y. InBuilding(x, y)
    )");
    Load(R"(
      Researcher(mary) Researcher(john) Researcher(mike)
      HasOffice(mary, room1) HasOffice(john, room4)
      InBuilding(room1, main1)
    )");
    omq = MakeOMQ(onto,
                  Query("q(x1, x2, x3) :- HasOffice(x1, x2), InBuilding(x2, x3)"));
    PrepareOptions options;
    options.for_complete = for_complete;
    options.for_partial = for_partial;
    auto p = PreparedOMQ::Prepare(omq, db, options);
    OMQE_CHECK(p.ok());
    prepared = std::move(p).value();
  }

  std::vector<ValueTuple> WantPartial() const {
    return BruteMinimalPartialAnswers(omq.query, prepared->chase().db);
  }
  std::vector<ValueTuple> WantComplete() const {
    return BruteCompleteAnswers(omq.query, prepared->chase().db);
  }
};

TEST(SessionTest, InterleavedSessionsProduceSeedAnswerSet) {
  PreparedOffice w;
  std::vector<ValueTuple> want = w.WantPartial();
  ASSERT_FALSE(want.empty());

  // Two sessions advanced in lock-step; pruning in one must not leak into
  // the other.
  EnumerationSession a(w.prepared);
  EnumerationSession b(w.prepared);
  std::vector<ValueTuple> got_a, got_b;
  ValueTuple t;
  bool more_a = true, more_b = true;
  while (more_a || more_b) {
    if (more_a && (more_a = a.Next(&t))) got_a.push_back(t);
    if (more_b && (more_b = b.Next(&t))) got_b.push_back(t);
  }
  EXPECT_TRUE(SameTupleSet(got_a, want));
  EXPECT_TRUE(SameTupleSet(got_b, want));
}

TEST(SessionTest, StaggeredSessionStartSeesFullAnswerSet) {
  PreparedOffice w;
  std::vector<ValueTuple> want = w.WantPartial();

  // Session A prunes while enumerating; B starts only after A is half (and
  // then fully) done and must still see the full, unpruned answer set.
  EnumerationSession a(w.prepared);
  ValueTuple t;
  ASSERT_TRUE(a.Next(&t));  // A has pruned at least once now.
  EnumerationSession b(w.prepared);
  std::vector<ValueTuple> got_b = Drain(b);
  std::vector<ValueTuple> got_a;
  got_a.push_back(t);
  // A moved session walks on with its pruned link buffer; the moved-from
  // one returns nothing, resets to nothing and reads zero touched nodes.
  EnumerationSession moved(std::move(a));
  EXPECT_FALSE(a.Next(&t));
  a.Reset();
  EXPECT_FALSE(a.Next(&t));
  EXPECT_EQ(a.overlay_stats().touched_nodes, 0u);
  while (moved.Next(&t)) got_a.push_back(t);
  EXPECT_TRUE(SameTupleSet(got_a, want));
  EXPECT_TRUE(SameTupleSet(got_b, want));

  EnumerationSession c(w.prepared);  // after both exhausted
  EXPECT_TRUE(SameTupleSet(Drain(c), want));
}

TEST(SessionTest, ResetReproducesAnswersDespitePruning) {
  // Reset keeps the session's pruned overlay (the paper's S' observation:
  // pruned trees are dominated by an output answer and contribute no
  // minimal one), so every re-walk yields the seed answer set.
  PreparedOffice w;
  std::vector<ValueTuple> want = w.WantPartial();
  EnumerationSession s(w.prepared);
  ValueTuple t;
  ASSERT_TRUE(s.Next(&t));  // abandon mid-walk, with pruning applied
  s.Reset();
  EXPECT_TRUE(SameTupleSet(Drain(s), want));
  s.Reset();
  EXPECT_TRUE(SameTupleSet(Drain(s), want));
}

TEST(SessionTest, SessionKeepsPreparedAlive) {
  PreparedOffice w;
  std::vector<ValueTuple> want = w.WantPartial();
  EnumerationSession s(w.prepared);
  w.prepared.reset();  // the session's shared_ptr is now the only owner
  EXPECT_TRUE(SameTupleSet(Drain(s), want));
}

TEST(SessionTest, CompleteSessionsAreIndependent) {
  PreparedOffice w;
  std::vector<ValueTuple> want = w.WantComplete();
  CompleteSession a(w.prepared);
  CompleteSession b(w.prepared);
  ValueTuple t;
  ASSERT_TRUE(a.Next(&t));  // a mid-walk while b drains
  std::vector<ValueTuple> got_b = Drain(b);
  std::vector<ValueTuple> got_a;
  got_a.push_back(t);
  // A moved session walks on; the moved-from one returns nothing and
  // resets to nothing.
  CompleteSession moved(std::move(a));
  EXPECT_FALSE(a.Next(&t));
  a.Reset();
  EXPECT_FALSE(a.Next(&t));
  while (moved.Next(&t)) got_a.push_back(t);
  EXPECT_TRUE(SameTupleSet(got_a, want));
  EXPECT_TRUE(SameTupleSet(got_b, want));
}

TEST(SessionTest, MultiWildcardCursorsShareOnePrepare) {
  PreparedOffice w(/*for_complete=*/false, /*for_partial=*/true);
  std::vector<ValueTuple> want =
      BruteMinimalMultiWildcardAnswers(w.omq.query, w.prepared->chase().db);
  auto a = MultiWildcardEnumerator::FromPrepared(w.prepared);
  auto b = MultiWildcardEnumerator::FromPrepared(w.prepared);
  std::vector<ValueTuple> got_a, got_b;
  ValueTuple t;
  bool more_a = true, more_b = true;
  while (more_a || more_b) {
    if (more_a && (more_a = a->Next(&t))) got_a.push_back(t);
    if (more_b && (more_b = b->Next(&t))) got_b.push_back(t);
  }
  EXPECT_TRUE(SameTupleSet(got_a, want));
  EXPECT_TRUE(SameTupleSet(got_b, want));
}

TEST(SessionTest, BooleanQuerySessions) {
  World w;
  Ontology onto = w.Onto("A(x) -> exists y. R(x, y)");
  w.Load("A(a)");
  OMQ omq = MakeOMQ(onto, w.Query("q() :- R(x, y)"));
  auto p = PreparedOMQ::Prepare(omq, w.db);
  ASSERT_TRUE(p.ok());
  EnumerationSession a(*p);
  EnumerationSession b(*p);
  ValueTuple t;
  EXPECT_TRUE(a.Next(&t));
  EXPECT_TRUE(b.Next(&t));
  EXPECT_FALSE(a.Next(&t));
  EXPECT_FALSE(b.Next(&t));
}

TEST(SessionTest, PartialEnumeratorWrapperSharesPrepared) {
  PreparedOffice w(/*for_complete=*/false, /*for_partial=*/true);
  auto a = PartialEnumerator::FromPrepared(w.prepared);
  auto b = PartialEnumerator::FromPrepared(w.prepared);
  EXPECT_EQ(&a->chase(), &b->chase());
  EXPECT_EQ(a->num_progress_trees(), b->num_progress_trees());
  std::vector<ValueTuple> want = w.WantPartial();
  std::vector<ValueTuple> got_a, got_b;
  ValueTuple t;
  while (a->Next(&t)) got_a.push_back(t);
  while (b->Next(&t)) got_b.push_back(t);
  EXPECT_TRUE(SameTupleSet(got_a, want));
  EXPECT_TRUE(SameTupleSet(got_b, want));
}

// The TSan payload: N threads, each with a private session over one shared
// PreparedOMQ, enumerating concurrently. The vocabulary and the chase
// database are frozen, so any write to shared state aborts deterministically
// — and any racy read/write pair is a TSan report under the tsan preset.
TEST(SessionTest, ConcurrentThreadsEnumerateIndependently) {
  PreparedOffice w;
  w.vocab.Freeze();
  ASSERT_TRUE(w.prepared->chase().db.frozen());
  std::vector<ValueTuple> want_partial = w.WantPartial();
  std::vector<ValueTuple> want_complete = w.WantComplete();

  constexpr int kThreads = 8;
  std::vector<std::vector<ValueTuple>> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      if (i % 2 == 0) {
        EnumerationSession s(w.prepared);
        got[i] = Drain(s);
      } else {
        CompleteSession s(w.prepared);
        got[i] = Drain(s);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_TRUE(SameTupleSet(got[i], i % 2 == 0 ? want_partial : want_complete))
        << "thread " << i;
  }
}

// Same shape on a larger generated instance so threads genuinely overlap.
TEST(SessionTest, ConcurrentThreadsOnLargerInstance) {
  World w;
  Ontology onto = w.Onto(R"(
    A(x) -> exists y. R(x, y)
    R(x, y) -> B(y)
    B(x) -> exists y. S(x, y)
  )");
  w.vocab.ReserveConstants(3000);
  for (int i = 0; i < 1000; ++i) {
    std::string n = std::to_string(i);
    w.Load("A(a" + n + ")");
    if (i % 3 != 0) w.Load("R(a" + n + ", c" + n + ")");
    if (i % 6 == 1) w.Load("S(c" + n + ", d" + n + ")");
  }
  OMQ omq = MakeOMQ(onto, w.Query("q(x, y, z) :- R(x, y), S(y, z)"));
  auto p = PreparedOMQ::Prepare(omq, w.db);
  ASSERT_TRUE(p.ok());
  std::shared_ptr<const PreparedOMQ> prepared = std::move(p).value();
  w.vocab.Freeze();
  std::vector<ValueTuple> want =
      BruteMinimalPartialAnswers(omq.query, prepared->chase().db);
  ASSERT_GT(want.size(), 500u);

  // Each thread runs kRounds sessions in turn and abandons every other one
  // half way, so closed sessions hand link buffers (some fully pruned, some
  // half) back to the artifact while other threads take them.
  constexpr int kThreads = 6;
  constexpr int kRounds = 4;
  std::vector<std::vector<std::vector<ValueTuple>>> got(
      kThreads, std::vector<std::vector<ValueTuple>>(kRounds));
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (int round = 0; round < kRounds; ++round) {
        EnumerationSession s(prepared);
        if (round % 2 == 0) {
          got[i][round] = Drain(s);
          continue;
        }
        ValueTuple t;
        for (size_t k = 0; k < want.size() / 2; ++k) s.Next(&t);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int i = 0; i < kThreads; ++i) {
    for (int round = 0; round < kRounds; round += 2) {
      EXPECT_TRUE(SameTupleSet(got[i][round], want))
          << "thread " << i << " round " << round;
    }
  }
  EXPECT_LE(prepared->link_buffers_allocated(), static_cast<size_t>(kThreads));
}

// A session's link buffer over list offsets, on two lists 0 -> 1 -> 2 -> 3
// and 4 -> 5: the initial order is the id order inside each list, and it
// ends at the list's end.
TEST(SessionTest, LinkBufferUnlinksOverListOffsetsAndClears) {
  const std::vector<uint32_t> list_begin = {0, 4, 6};
  LinkOverlay overlay;
  overlay.Attach(&list_begin, std::make_unique<LinkBuffer>(6));
  EXPECT_EQ(overlay.next(2, 0), 3u);
  EXPECT_EQ(overlay.next(3, 0), UINT32_MAX);  // not 4: list 1 begins there
  EXPECT_EQ(overlay.next(4, 1), 5u);
  EXPECT_EQ(overlay.stats().touched_nodes, 0u);

  overlay.Unlink(1, 0);  // a middle node
  EXPECT_FALSE(overlay.alive(1));
  EXPECT_EQ(overlay.next(0, 0), 2u);
  EXPECT_EQ(overlay.stats().touched_nodes, 3u);  // 1 and both neighbors
  overlay.Unlink(3, 0);  // the last node
  EXPECT_EQ(overlay.next(2, 0), UINT32_MAX);
  EXPECT_EQ(overlay.stats().touched_nodes, 4u);
  overlay.Unlink(2, 0);
  EXPECT_EQ(overlay.next(0, 0), UINT32_MAX);
  // A dead node's next stays frozen: a walk positioned on 1 goes on to 2,
  // dead too, and from there to the list's end.
  EXPECT_EQ(overlay.next(1, 0), 2u);
  EXPECT_EQ(overlay.next(2, 0), UINT32_MAX);
  overlay.Unlink(2, 0);  // idempotent
  EXPECT_EQ(overlay.stats().touched_nodes, 4u);
  EXPECT_TRUE(overlay.alive(4) && overlay.alive(5));  // list 1 untouched

  // Detach clears the buffer through its log.
  std::unique_ptr<LinkBuffer> buffer = overlay.Detach();
  EXPECT_TRUE(buffer->touched_ids.empty());
  EXPECT_EQ(buffer->state, std::vector<uint8_t>(6, 0));

  // Recycled, the cleared buffer reads the initial order again.
  LinkOverlay recycled;
  recycled.Attach(&list_begin, std::move(buffer));
  for (uint32_t id = 0; id < 3; ++id) {
    EXPECT_TRUE(recycled.alive(id));
    EXPECT_EQ(recycled.next(id, 0), id + 1);
  }
  EXPECT_EQ(recycled.next(3, 0), UINT32_MAX);
  EXPECT_EQ(recycled.stats().touched_nodes, 0u);
}

// Answer-order digests. The tests above compare answer sets; these pin the
// order in which each cursor emits its answers, which follows the chains of
// the normalization's row indexes and of the progress-tree lists. How those
// tables are stored or grown must never show in it. FNV-1a 64 over each
// answer's length and then its values, in output order, with the byte
// mixing of chase_test's ChaseDigest. (To re-record after an intended order
// change, print it with std::hex.)
struct AnswerDigest {
  uint64_t h = 0xcbf29ce484222325ULL;
  uint64_t answers = 0;

  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void Add(const ValueTuple& t) {
    ++answers;
    Mix(t.size());
    for (Value v : t) Mix(v);
  }
};

struct OrderDigests {
  /// `recycled` drains a second EnumerationSession after the first one is
  /// destroyed, so it walks the link buffer the first one pruned and
  /// handed back.
  AnswerDigest complete, partial, recycled, multi;
};

OrderDigests DigestAnswerOrder(const OMQ& omq, const Database& db) {
  auto p = PreparedOMQ::Prepare(omq, db);
  OMQE_CHECK(p.ok());
  std::shared_ptr<const PreparedOMQ> prepared = std::move(p).value();
  OrderDigests d;
  ValueTuple t;
  CompleteSession complete(prepared);
  while (complete.Next(&t)) d.complete.Add(t);
  for (AnswerDigest* digest : {&d.partial, &d.recycled}) {
    EnumerationSession partial(prepared);
    while (partial.Next(&t)) digest->Add(t);
  }
  EXPECT_EQ(prepared->link_buffers_allocated(), 1u);
  auto multi = MultiWildcardEnumerator::FromPrepared(prepared);
  while (multi->Next(&t)) d.multi.Add(t);
  return d;
}

TEST(AnswerOrderDigestTest, OfficeAnswerOrderIsPinned) {
  World w;
  OfficeParams params;
  params.researchers = 2000;
  GenerateOffice(params, &w.db);
  OrderDigests d = DigestAnswerOrder(OfficeOMQ(&w.vocab), w.db);
  EXPECT_EQ(d.complete.answers, 586u);
  EXPECT_EQ(d.complete.h, 0xc2939f4719d00e4bULL);
  EXPECT_EQ(d.partial.answers, 2000u);
  EXPECT_EQ(d.partial.h, 0xbb8ad98642077439ULL);
  EXPECT_EQ(d.recycled.answers, 2000u);
  EXPECT_EQ(d.recycled.h, 0xbb8ad98642077439ULL);
  EXPECT_EQ(d.multi.answers, 2000u);
  EXPECT_EQ(d.multi.h, 0x160266be992ddebdULL);
}

TEST(AnswerOrderDigestTest, ChainAnswerOrderIsPinned) {
  World w;
  ChainParams params;
  params.length = 3;
  params.base_size = 1000;
  params.fanout = 3;
  params.anonymous_fraction = 0.2;
  GenerateChain(params, &w.db);
  Ontology onto = ChainOntology(&w.vocab, params.length);
  CQ q = ChainQuery(&w.vocab, params.length);
  OrderDigests d = DigestAnswerOrder(MakeOMQ(std::move(onto), std::move(q)), w.db);
  EXPECT_EQ(d.complete.answers, 14307u);
  EXPECT_EQ(d.complete.h, 0x72718b98709550cdULL);
  EXPECT_EQ(d.partial.answers, 16042u);
  EXPECT_EQ(d.partial.h, 0x69653a2d1ef3b788ULL);
  EXPECT_EQ(d.recycled.answers, 16042u);
  EXPECT_EQ(d.recycled.h, 0x69653a2d1ef3b788ULL);
  EXPECT_EQ(d.multi.answers, 16042u);
  EXPECT_EQ(d.multi.h, 0x57ce61bf26afc44aULL);
}

}  // namespace
}  // namespace omqe
