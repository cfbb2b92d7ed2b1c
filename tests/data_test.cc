#include <gtest/gtest.h>

#include "data/database.h"
#include "data/index.h"
#include "data/schema.h"
#include "data/value.h"
#include "test_util.h"

namespace omqe {
namespace {

using testing::World;

TEST(ValueTest, TagDiscipline) {
  Value c = 5;
  Value n = MakeNull(7);
  Value w = MakeWildcard(2);
  EXPECT_TRUE(IsConstant(c));
  EXPECT_FALSE(IsConstant(n));
  EXPECT_TRUE(IsNull(n));
  EXPECT_FALSE(IsNull(w));
  EXPECT_TRUE(IsWildcard(w));
  EXPECT_TRUE(IsWildcard(kStar));
  EXPECT_EQ(NullIndex(n), 7u);
  EXPECT_EQ(WildcardIndex(w), 2u);
  EXPECT_EQ(WildcardIndex(kStar), 0u);
}

TEST(VocabularyTest, RelationsAndConstants) {
  Vocabulary v;
  RelId r = v.RelationId("R", 2);
  EXPECT_EQ(v.RelationId("R", 2), r);
  EXPECT_EQ(v.Arity(r), 2u);
  EXPECT_EQ(v.RelationName(r), "R");
  EXPECT_EQ(v.TryRelationId("R", 3), UINT32_MAX);
  RelId fresh = v.FreshRelation("R", 1);
  EXPECT_NE(fresh, r);
  EXPECT_NE(v.RelationName(fresh), "R");
  Value c = v.ConstantId("mary");
  EXPECT_EQ(v.ConstantId("mary"), c);
  EXPECT_EQ(v.ValueName(c), "mary");
  EXPECT_EQ(v.ValueName(MakeNull(3)), "_:n3");
  EXPECT_EQ(v.ValueName(kStar), "*");
  EXPECT_EQ(v.ValueName(MakeWildcard(2)), "*_2");
}

TEST(DatabaseTest, AddDedupAndSize) {
  World w;
  w.Load("R(a,b) R(a,b) R(b,c) A(a)");
  EXPECT_EQ(w.db.TotalFacts(), 3u);
  RelId r = w.vocab.FindRelation("R");
  EXPECT_EQ(w.db.NumRows(r), 2u);
  Value key[2] = {w.C("a"), w.C("b")};
  EXPECT_TRUE(w.db.Contains(r, key, 2));
  key[1] = w.C("z");
  EXPECT_FALSE(w.db.Contains(r, key, 2));
  // ||D|| counts facts weighted by arity + 1.
  EXPECT_EQ(w.db.SizeBound(), 2 * 3 + 1 * 2u);
}

TEST(DatabaseTest, ActiveDomainAndNulls) {
  World w;
  w.Load("R(a,b)");
  RelId r = w.vocab.FindRelation("R");
  Value null = w.db.FreshNull();
  Value t[2] = {w.C("a"), null};
  w.db.AddFact(r, t, 2);
  auto dom = w.db.ActiveDomain();
  EXPECT_EQ(dom.size(), 3u);  // a, b, null
  EXPECT_TRUE(w.db.HasNulls());
  EXPECT_EQ(w.db.NullHighWater(), 1u);
}

TEST(DatabaseTest, ToStringListsFacts) {
  World w;
  w.Load("R(a,b)");
  std::string s = w.db.ToString();
  EXPECT_NE(s.find("R(a,b)"), std::string::npos);
}

/// A bulk-built RowIndex over relation `rel` of `db`.
RowIndex IndexRelation(const Database& db, RelId rel, std::vector<uint32_t> key_columns) {
  return RowIndex(db.Rows(rel), db.NumRows(rel), db.Arity(rel), std::move(key_columns));
}

TEST(RowIndexTest, LookupByBoundPositions) {
  World w;
  w.Load("E(a,b) E(a,c) E(b,c) E(c,a)");
  RelId e = w.vocab.FindRelation("E");
  RowIndex by_first = IndexRelation(w.db, e, {0});
  Value key[1] = {w.C("a")};
  int count = 0;
  for (uint32_t r = by_first.First(key); r != UINT32_MAX; r = by_first.Next(r)) ++count;
  EXPECT_EQ(count, 2);
  key[0] = w.C("z");
  EXPECT_EQ(by_first.First(key), UINT32_MAX);
  // Empty key: all rows.
  RowIndex all = IndexRelation(w.db, e, {});
  count = 0;
  for (uint32_t r = all.First(nullptr); r != UINT32_MAX; r = all.Next(r)) ++count;
  EXPECT_EQ(count, 4);
  // Both positions.
  RowIndex by_both = IndexRelation(w.db, e, {0, 1});
  Value key2[2] = {w.C("b"), w.C("c")};
  EXPECT_NE(by_both.First(key2), UINT32_MAX);
}

TEST(DatabaseTest, ReservedBulkLoadNeverRehashes) {
  Vocabulary vocab;
  Database db(&vocab);
  RelId e = vocab.RelationId("E", 2);
  const uint32_t n = 20000;
  db.ReserveFacts(e, n);
  size_t reserved_capacity = db.DedupStats(e).capacity;
  for (uint32_t i = 0; i < n; ++i) {
    Value t[2] = {i, i + 1};
    db.AddFact(e, t, 2);
  }
  HashStats stats = db.DedupStats(e);
  EXPECT_EQ(db.NumRows(e), n);
  // One up-front sizing, zero intermediate rehashes, load invariant intact.
  EXPECT_EQ(stats.capacity, reserved_capacity);
  EXPECT_EQ(stats.rehashes, 0u);
  EXPECT_LT(stats.LoadFactor(), 0.75);
}

TEST(RowIndexTest, BatchedBuildNeverRehashes) {
  Vocabulary vocab;
  Database db(&vocab);
  RelId e = vocab.RelationId("E", 2);
  const uint32_t n = 20000;
  db.ReserveFacts(e, n);
  for (uint32_t i = 0; i < n; ++i) {
    Value t[2] = {i % 997, i};
    db.AddFact(e, t, 2);
  }
  RowIndex idx = IndexRelation(db, e, {0, 1});
  HashStats stats = idx.HeadStats();
  EXPECT_EQ(stats.size, n);  // all keys distinct -> one head per row
  EXPECT_EQ(stats.rehashes, 0u);
  EXPECT_LT(stats.LoadFactor(), 0.75);
  // The index still answers lookups.
  Value key[2] = {5, 5};
  EXPECT_NE(idx.First(key), UINT32_MAX);
}

TEST(RowIndexTest, ChainsAscending) {
  World w;
  w.Load("E(a,b) E(a,c) E(a,d)");
  RelId e = w.vocab.FindRelation("E");
  RowIndex idx = IndexRelation(w.db, e, {0});
  Value key[1] = {w.C("a")};
  uint32_t prev = 0;
  bool first = true;
  for (uint32_t r = idx.First(key); r != UINT32_MAX; r = idx.Next(r)) {
    if (!first) {
      EXPECT_GT(r, prev);
    }
    prev = r;
    first = false;
  }
}

TEST(RowIndexTest, AddedRowsChainNewestFirst) {
  // The chase fills its join indexes row by row and matches newer rows
  // first; its pinned results depend on this order.
  RowIndex idx({0});
  Value rows[4][2] = {{1, 10}, {2, 11}, {1, 12}, {1, 13}};
  idx.Reserve(4);
  for (auto& row : rows) idx.Add(row);
  Value key[1] = {1};
  std::vector<uint32_t> chain;
  for (uint32_t r = idx.First(key); r != UINT32_MAX; r = idx.Next(r)) chain.push_back(r);
  EXPECT_EQ(chain, (std::vector<uint32_t>{3, 2, 0}));
  key[0] = 3;
  EXPECT_EQ(idx.First(key), UINT32_MAX);
}

}  // namespace
}  // namespace omqe
