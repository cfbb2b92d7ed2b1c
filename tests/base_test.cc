#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "base/counted_mutex.h"
#include "base/flat_hash.h"
#include "base/hash.h"
#include "base/interner.h"
#include "base/rng.h"
#include "base/small_vec.h"
#include "base/status.h"
#include "base/str.h"
#include "horn/horn.h"
#include "test_util.h"

namespace omqe {
namespace {

TEST(SmallVecTest, InlineThenHeap) {
  SmallVec<uint32_t, 4> v;
  for (uint32_t i = 0; i < 100; ++i) v.push_back(i * 3);
  ASSERT_EQ(v.size(), 100u);
  for (uint32_t i = 0; i < 100; ++i) EXPECT_EQ(v[i], i * 3);
  SmallVec<uint32_t, 4> copy = v;
  EXPECT_EQ(copy, v);
  copy.push_back(1);
  EXPECT_NE(copy, v);
  SmallVec<uint32_t, 4> moved = std::move(copy);
  EXPECT_EQ(moved.size(), 101u);
}

TEST(SmallVecTest, InitializerListAndCompare) {
  SmallVec<uint32_t, 4> a{1, 2, 3};
  SmallVec<uint32_t, 4> b{1, 2, 4};
  EXPECT_TRUE(a < b);
  EXPECT_FALSE(b < a);
  EXPECT_TRUE(a.contains(2));
  EXPECT_FALSE(a.contains(9));
}

TEST(SmallVecTest, ResizeAndClear) {
  SmallVec<int, 2> v;
  v.resize(10, 7);
  EXPECT_EQ(v.size(), 10u);
  EXPECT_EQ(v[9], 7);
  v.clear();
  EXPECT_TRUE(v.empty());
}

TEST(FlatMapTest, InsertFindGrow) {
  FlatMap<uint64_t, uint32_t> m;
  for (uint64_t k = 1; k <= 10000; ++k) m.Put(k, static_cast<uint32_t>(k * 2));
  EXPECT_EQ(m.size(), 10000u);
  for (uint64_t k = 1; k <= 10000; ++k) {
    auto* v = m.Find(k);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, k * 2);
  }
  EXPECT_EQ(m.Find(999999), nullptr);
}

TEST(FlatMapTest, InsertOrGetKeepsFirst) {
  FlatMap<uint32_t, int> m;
  m.InsertOrGet(5, 1);
  m.InsertOrGet(5, 2);
  EXPECT_EQ(*m.Find(5), 1);
  m.Put(5, 3);
  EXPECT_EQ(*m.Find(5), 3);
}

TEST(TupleMapTest, DistinctTuplesAndCollisions) {
  TupleMap<uint32_t> m;
  std::vector<std::vector<uint32_t>> keys;
  for (uint32_t a = 0; a < 30; ++a) {
    for (uint32_t b = 0; b < 30; ++b) {
      keys.push_back({a, b, a ^ b});
    }
  }
  for (uint32_t i = 0; i < keys.size(); ++i) {
    m.InsertOrGet(keys[i].data(), 3, i);
  }
  EXPECT_EQ(m.size(), keys.size());
  for (uint32_t i = 0; i < keys.size(); ++i) {
    auto* v = m.Find(keys[i].data(), 3);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, i);
  }
  uint32_t absent[3] = {99, 99, 99};
  EXPECT_EQ(m.Find(absent, 3), nullptr);
}

TEST(TupleMapTest, VariableLengthKeysDoNotClash) {
  TupleMap<int> m;
  uint32_t k1[2] = {1, 2};
  uint32_t k2[3] = {1, 2, 0};
  m.InsertOrGet(k1, 2, 10);
  m.InsertOrGet(k2, 3, 20);
  EXPECT_EQ(*m.Find(k1, 2), 10);
  EXPECT_EQ(*m.Find(k2, 3), 20);
}

TEST(InternerTest, RoundTrip) {
  Interner in;
  uint32_t a = in.Intern("alpha");
  uint32_t b = in.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(in.Intern("alpha"), a);
  EXPECT_EQ(in.Name(a), "alpha");
  EXPECT_EQ(in.Lookup("beta"), b);
  EXPECT_EQ(in.Lookup("gamma"), UINT32_MAX);
  EXPECT_EQ(in.size(), 2u);
}

TEST(InternerTest, ManyStrings) {
  Interner in;
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(in.Intern("s" + std::to_string(i)), static_cast<uint32_t>(i));
  }
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(in.Lookup("s" + std::to_string(i)), static_cast<uint32_t>(i));
  }
}

TEST(RngTest, DeterministicAndRoughlyUniform) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  Rng r(7);
  int buckets[10] = {0};
  for (int i = 0; i < 10000; ++i) ++buckets[r.Below(10)];
  for (int i = 0; i < 10; ++i) {
    EXPECT_GT(buckets[i], 800);
    EXPECT_LT(buckets[i], 1200);
  }
}

TEST(RngTest, RangeInclusive) {
  Rng r(3);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.Range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(StrTest, TrimSplitPrintf) {
  EXPECT_EQ(Trim("  a b \n"), "a b");
  auto parts = SplitTrim("a, b ,,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
  EXPECT_EQ(StrPrintf("%d-%s", 7, "x"), "7-x");
}

TEST(StatusTest, Basics) {
  Status ok = Status::OK();
  EXPECT_TRUE(ok.ok());
  Status bad = Status::InvalidArgument("nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.ToString(), "INVALID_ARGUMENT: nope");
  StatusOr<int> v = 5;
  EXPECT_TRUE(v.ok());
  EXPECT_EQ(*v, 5);
  StatusOr<int> e = Status::ParseError("x");
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kParseError);
}

TEST(HornTest, FactsPropagate) {
  HornFormula h;
  uint32_t a = h.AddVar(), b = h.AddVar(), c = h.AddVar(), d = h.AddVar();
  h.AddClause({}, a);
  h.AddClause({a}, b);
  h.AddClause({a, b}, c);
  h.AddClause({c, d}, d);  // d never derivable
  auto model = h.MinimalModel();
  EXPECT_TRUE(model[a]);
  EXPECT_TRUE(model[b]);
  EXPECT_TRUE(model[c]);
  EXPECT_FALSE(model[d]);
}

TEST(HornTest, MinimalityNoSpuriousTruth) {
  HornFormula h;
  uint32_t a = h.AddVar(), b = h.AddVar();
  h.AddClause({a}, b);
  auto model = h.MinimalModel();
  EXPECT_FALSE(model[a]);
  EXPECT_FALSE(model[b]);
}

TEST(HornTest, RepeatedBodyLiteral) {
  HornFormula h;
  uint32_t a = h.AddVar(), b = h.AddVar();
  h.AddClause({a, a}, b);
  h.AddClause({}, a);
  auto model = h.MinimalModel();
  EXPECT_TRUE(model[b]);
}

TEST(HornTest, LargeChain) {
  HornFormula h;
  std::vector<uint32_t> vars;
  for (int i = 0; i < 100000; ++i) vars.push_back(h.AddVar());
  h.AddClause({}, vars[0]);
  for (int i = 1; i < 100000; ++i) h.AddClause({vars[i - 1]}, vars[i]);
  auto model = h.MinimalModel();
  EXPECT_TRUE(model[vars.back()]);
}

TEST(HashTest, SpanHashDiscriminates) {
  uint32_t a[3] = {1, 2, 3};
  uint32_t b[3] = {1, 3, 2};
  uint32_t c[2] = {1, 2};
  EXPECT_NE(HashSpan32(a, 3), HashSpan32(b, 3));
  EXPECT_NE(HashSpan32(a, 3), HashSpan32(c, 2));
  EXPECT_EQ(HashSpan32(a, 3), HashSpan32(a, 3));
}

TEST(FlatHashTest, TupleMapZeroLengthKeys) {
  // Boolean queries and zero-ary facts probe with len == 0 before the arena
  // has allocated; this used to feed memcmp a null pointer (UB).
  TupleMap<int> m;
  EXPECT_EQ(m.Find(nullptr, 0), nullptr);
  m.InsertOrGet(nullptr, 0, 7);
  ASSERT_NE(m.Find(nullptr, 0), nullptr);
  EXPECT_EQ(*m.Find(nullptr, 0), 7);
  uint32_t k[2] = {1, 2};
  m.InsertOrGet(k, 2, 9);
  EXPECT_EQ(*m.Find(nullptr, 0), 7);
  EXPECT_EQ(*m.Find(k, 2), 9);
}

TEST(FlatHashTest, StatsStayWithinOpenAddressingInvariants) {
  FlatMap<uint32_t, uint32_t> m;
  for (uint32_t i = 0; i < 10000; ++i) m.InsertOrGet(i * 2654435761u, i);
  HashStats stats = m.Stats();
  EXPECT_EQ(stats.size, 10000u);
  EXPECT_LT(stats.LoadFactor(), 0.75);
  // With a 64-bit mixed hash and <3/4 load, probe sequences stay short;
  // generous bounds so the test pins the invariant, not the constant.
  EXPECT_LT(stats.mean_probe, 4.0);
  EXPECT_LT(stats.max_probe, 128u);

  TupleMap<uint32_t> t;
  for (uint32_t i = 0; i < 10000; ++i) {
    uint32_t key[3] = {i, i ^ 0x9e3779b9u, i * 7u};
    t.InsertOrGet(key, 3, i);
  }
  HashStats tstats = t.Stats();
  EXPECT_EQ(tstats.size, 10000u);
  EXPECT_LT(tstats.LoadFactor(), 0.75);
  EXPECT_LT(tstats.mean_probe, 4.0);
  EXPECT_LT(tstats.max_probe, 128u);
}

TEST(FlatHashTest, ReservedFlatMapBulkLoadNeverRehashes) {
  FlatMap<uint64_t, uint32_t> m;
  const size_t n = 50000;
  m.Reserve(n);
  size_t reserved_capacity = m.Stats().capacity;
  for (uint64_t k = 1; k <= n; ++k) m.InsertOrGet(k * 0x9e3779b97f4a7c15ull, 1);
  HashStats stats = m.Stats();
  EXPECT_EQ(stats.size, n);
  // Exactly the one up-front sizing: capacity unchanged, zero rehashes that
  // re-probed existing entries, and the load invariant still holds.
  EXPECT_EQ(stats.capacity, reserved_capacity);
  EXPECT_EQ(stats.rehashes, 0u);
  EXPECT_LT(stats.LoadFactor(), 0.75);
}

TEST(FlatHashTest, UnreservedFlatMapCountsItsRehashes) {
  FlatMap<uint64_t, uint32_t> m;
  for (uint64_t k = 1; k <= 50000; ++k) m.InsertOrGet(k, 1);
  // Growing 16 -> 128k doubling steps, each re-probing the live entries.
  EXPECT_GT(m.Stats().rehashes, 8u);
}

TEST(FlatHashTest, ReservedTupleMapBulkLoadNeverRehashes) {
  TupleMap<uint32_t> m;
  const uint32_t n = 50000;
  m.Reserve(n, static_cast<size_t>(n) * 3);
  size_t reserved_capacity = m.Stats().capacity;
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t key[3] = {i, i ^ 0x85ebca6bu, i * 11u};
    m.InsertOrGet(key, 3, i);
  }
  HashStats stats = m.Stats();
  EXPECT_EQ(stats.size, n);
  EXPECT_EQ(stats.capacity, reserved_capacity);
  EXPECT_EQ(stats.rehashes, 0u);
  EXPECT_LT(stats.LoadFactor(), 0.75);
}

TEST(FlatHashTest, TupleMapClearKeepsCapacityAndForgetsEntries) {
  TupleMap<int> m;
  m.Reserve(1000, 2000);
  for (uint32_t i = 0; i < 1000; ++i) {
    uint32_t key[2] = {i, i + 1};
    m.InsertOrGet(key, 2, static_cast<int>(i));
  }
  size_t capacity = m.Stats().capacity;
  m.clear();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.Stats().capacity, capacity);
  uint32_t probe[2] = {5, 6};
  EXPECT_EQ(m.Find(probe, 2), nullptr);
  // Reusable after clear.
  m.InsertOrGet(probe, 2, 42);
  EXPECT_EQ(*m.Find(probe, 2), 42);
}

TEST(FlatHashTest, TupleMapPutOverwrites) {
  TupleMap<int> m;
  uint32_t key[2] = {3, 4};
  m.Put(key, 2, 1);
  EXPECT_EQ(*m.Find(key, 2), 1);
  m.Put(key, 2, 2);
  EXPECT_EQ(*m.Find(key, 2), 2);
  EXPECT_EQ(m.size(), 1u);
}

// Value type that counts copy assignments, to pin down that Put writes the
// stored value exactly once per call (the old implementation wrote twice on
// insert: once in InsertOrGet, once through the returned reference).
struct AssignCounted {
  int value = 0;
  static int assignments;
  AssignCounted() = default;
  explicit AssignCounted(int v) : value(v) {}
  AssignCounted(const AssignCounted&) = default;
  AssignCounted& operator=(const AssignCounted& other) {
    value = other.value;
    ++assignments;
    return *this;
  }
};
int AssignCounted::assignments = 0;

TEST(FlatHashTest, PutWritesValueExactlyOnce) {
  FlatMap<uint32_t, AssignCounted> m;
  AssignCounted::assignments = 0;
  m.Put(7, AssignCounted(1));
  EXPECT_EQ(AssignCounted::assignments, 1);
  m.Put(7, AssignCounted(2));
  EXPECT_EQ(AssignCounted::assignments, 2);
  EXPECT_EQ(m.Find(7)->value, 2);
}

TEST(InternerTest, ReservedBulkInternNeverRehashes) {
  Interner in;
  in.Reserve(20000);
  size_t reserved_capacity = in.Stats().capacity;
  for (int i = 0; i < 20000; ++i) in.Intern("c" + std::to_string(i));
  EXPECT_EQ(in.size(), 20000u);
  HashStats stats = in.Stats();
  EXPECT_EQ(stats.capacity, reserved_capacity);
  EXPECT_EQ(stats.rehashes, 0u);
  EXPECT_LT(stats.LoadFactor(), 0.75);
  for (int i = 0; i < 20000; ++i) {
    EXPECT_EQ(in.Lookup("c" + std::to_string(i)), static_cast<uint32_t>(i));
  }
}

TEST(WorldLoadTest, ZeroAryFact) {
  testing::World w;
  w.Load("Flag()");
  RelId r = w.vocab.TryRelationId("Flag", 0);
  ASSERT_NE(r, UINT32_MAX);
  EXPECT_EQ(w.db.NumRows(r), 1u);
  EXPECT_EQ(w.db.TotalFacts(), 1u);
}

TEST(WorldLoadTest, WhitespaceOnlyArgListIsZeroAry) {
  testing::World w;
  w.Load("Flag(   )");
  EXPECT_NE(w.vocab.TryRelationId("Flag", 0), UINT32_MAX);
  EXPECT_EQ(w.vocab.TryRelationId("Flag", 1), UINT32_MAX);
  EXPECT_EQ(w.db.TotalFacts(), 1u);
}

TEST(WorldLoadTest, TrailingCommaDoesNotAddPhantomArg) {
  testing::World w;
  w.Load("R(a,)");
  RelId r = w.vocab.TryRelationId("R", 1);
  ASSERT_NE(r, UINT32_MAX);
  ASSERT_EQ(w.db.NumRows(r), 1u);
  EXPECT_EQ(w.vocab.ValueName(w.db.Row(r, 0)[0]), "a");
}

TEST(WorldLoadTest, MultiSpaceSeparatorsAreTrimmed) {
  testing::World w;
  w.Load("R(  a  ,\t b ,c   )");
  RelId r = w.vocab.TryRelationId("R", 3);
  ASSERT_NE(r, UINT32_MAX);
  ASSERT_EQ(w.db.NumRows(r), 1u);
  const Value* row = w.db.Row(r, 0);
  EXPECT_EQ(w.vocab.ValueName(row[0]), "a");
  EXPECT_EQ(w.vocab.ValueName(row[1]), "b");
  EXPECT_EQ(w.vocab.ValueName(row[2]), "c");
}

TEST(WorldLoadTest, UnclosedParenStopsCleanly) {
  testing::World w;
  w.Load("R(a, b) S(c");  // must not hang or add the malformed fact
  RelId r = w.vocab.TryRelationId("R", 2);
  ASSERT_NE(r, UINT32_MAX);
  EXPECT_EQ(w.db.TotalFacts(), 1u);
}

TEST(WorldLoadTest, MultipleFactsAcrossWhitespaceAndNewlines) {
  testing::World w;
  w.Load("R(a, b)\n  S(b)\tR(c,d)  Flag()");
  RelId r = w.vocab.TryRelationId("R", 2);
  RelId s = w.vocab.TryRelationId("S", 1);
  RelId f = w.vocab.TryRelationId("Flag", 0);
  ASSERT_NE(r, UINT32_MAX);
  ASSERT_NE(s, UINT32_MAX);
  ASSERT_NE(f, UINT32_MAX);
  EXPECT_EQ(w.db.NumRows(r), 2u);
  EXPECT_EQ(w.db.NumRows(s), 1u);
  EXPECT_EQ(w.db.NumRows(f), 1u);
  EXPECT_EQ(w.db.TotalFacts(), 4u);
}

TEST(CountedMutexTest, CountsAcquisitionsAndPerThreadHeld) {
  CountedMutex mu;
  const uint64_t before = CountedMutex::TotalAcquisitions();
  EXPECT_EQ(CountedMutex::HeldByThisThread(), 0u);
  {
    std::lock_guard<CountedMutex> lock(mu);
    EXPECT_EQ(CountedMutex::HeldByThisThread(), 1u);
  }
  EXPECT_EQ(CountedMutex::HeldByThisThread(), 0u);
  ASSERT_TRUE(mu.try_lock());
  EXPECT_EQ(CountedMutex::HeldByThisThread(), 1u);
  mu.unlock();
  EXPECT_EQ(CountedMutex::TotalAcquisitions(), before + 2);
}

TEST(CountedMutexTest, HeldCountIsPerThread) {
  CountedMutex mu;
  std::lock_guard<CountedMutex> lock(mu);
  uint32_t seen_on_other_thread = 99;
  std::thread t([&seen_on_other_thread] {
    seen_on_other_thread = CountedMutex::HeldByThisThread();
  });
  t.join();
  EXPECT_EQ(seen_on_other_thread, 0u);
  EXPECT_EQ(CountedMutex::HeldByThisThread(), 1u);
}

}  // namespace
}  // namespace omqe
