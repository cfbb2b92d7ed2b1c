// Death tests for the PR 3 freeze contract: Database::Freeze,
// Vocabulary::Freeze, and Interner::Freeze turn writes to shared state into
// deterministic aborts (instead of cross-thread data races), while read
// paths stay fully functional. Until now these paths were only exercised
// implicitly by the prepared-query engine never writing after Prepare.
// The last test pins the link lists' invariant the same way: a list's
// first progress tree is never pruned, and unlinking one aborts.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "base/interner.h"
#include "core/link_overlay.h"
#include "data/database.h"
#include "data/schema.h"

namespace omqe {
namespace {

constexpr char kCheckMsg[] = "OMQE_CHECK failed";

TEST(DatabaseFreezeDeathTest, AddFactAbortsAfterFreeze) {
  Vocabulary vocab;
  Database db(&vocab);
  RelId r = vocab.RelationId("R", 2);
  Value row[2] = {vocab.ConstantId("a"), vocab.ConstantId("b")};
  ASSERT_TRUE(db.AddFact(r, row, 2));
  db.Freeze();
  ASSERT_TRUE(db.frozen());
  EXPECT_DEATH(db.AddFact(r, row, 2), kCheckMsg);
}

TEST(DatabaseFreezeDeathTest, FreshNullAbortsAfterFreeze) {
  Vocabulary vocab;
  Database db(&vocab);
  (void)db.FreshNull();  // fine while mutable
  db.Freeze();
  EXPECT_DEATH(db.FreshNull(), kCheckMsg);
}

TEST(DatabaseFreezeDeathTest, ReserveFactsAbortsAfterFreeze) {
  Vocabulary vocab;
  Database db(&vocab);
  RelId r = vocab.RelationId("R", 2);
  db.ReserveFacts(r, 16);  // fine while mutable
  db.Freeze();
  EXPECT_DEATH(db.ReserveFacts(r, 16), kCheckMsg);
}

TEST(DatabaseFreezeDeathTest, ReadsStayValidAfterFreeze) {
  Vocabulary vocab;
  Database db(&vocab);
  RelId r = vocab.RelationId("R", 2);
  Value row[2] = {vocab.ConstantId("a"), vocab.ConstantId("b")};
  db.AddFact(r, row, 2);
  db.Freeze();
  EXPECT_TRUE(db.Contains(r, row, 2));
  EXPECT_EQ(db.NumRows(r), 1u);
  EXPECT_EQ(db.TotalFacts(), 1u);
  EXPECT_EQ(db.Row(r, 0)[0], row[0]);
}

TEST(VocabularyFreezeDeathTest, NewRelationAbortsAfterFreeze) {
  Vocabulary vocab;
  vocab.RelationId("R", 2);
  vocab.Freeze();
  ASSERT_TRUE(vocab.frozen());
  EXPECT_DEATH(vocab.RelationId("Fresh", 1), kCheckMsg);
}

TEST(VocabularyFreezeDeathTest, NewConstantAbortsAfterFreeze) {
  Vocabulary vocab;
  vocab.ConstantId("existing");
  vocab.Freeze();
  EXPECT_DEATH(vocab.ConstantId("fresh"), kCheckMsg);
}

TEST(VocabularyFreezeDeathTest, ExistingLookupsStayValidAfterFreeze) {
  Vocabulary vocab;
  RelId r = vocab.RelationId("R", 2);
  Value c = vocab.ConstantId("a");
  vocab.Freeze();
  // Re-registering an existing symbol is a lookup, not a write.
  EXPECT_EQ(vocab.RelationId("R", 2), r);
  EXPECT_EQ(vocab.ConstantId("a"), c);
  EXPECT_EQ(vocab.FindRelation("R"), r);
  EXPECT_EQ(vocab.FindConstant("a"), c);
  EXPECT_EQ(vocab.RelationName(r), "R");
  EXPECT_EQ(vocab.ValueName(c), "a");
}

TEST(InternerFreezeDeathTest, InternOfNewStringAbortsAfterFreeze) {
  Interner interner;
  uint32_t id = interner.Intern("known");
  interner.Freeze();
  ASSERT_TRUE(interner.frozen());
  EXPECT_EQ(interner.Intern("known"), id);  // existing: lookup semantics
  EXPECT_EQ(interner.Lookup("unknown"), UINT32_MAX);
  EXPECT_DEATH(interner.Intern("unknown"), kCheckMsg);
}

TEST(LinkOverlayDeathTest, UnlinkingAListsFirstTreeAborts) {
  const std::vector<uint32_t> list_begin = {0, 3, 5};
  LinkOverlay overlay;
  overlay.Attach(&list_begin, std::make_unique<LinkBuffer>(5));
  overlay.Unlink(1, 0);  // fine: 0 precedes it
  EXPECT_FALSE(overlay.alive(1));
  EXPECT_DEATH(overlay.Unlink(0, 0), kCheckMsg);
  EXPECT_DEATH(overlay.Unlink(3, 1), kCheckMsg);
}

}  // namespace
}  // namespace omqe
