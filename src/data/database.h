// Database: a finite set of facts over a Vocabulary. Facts are stored
// column-free as flat tuples per relation with a hash-based dedup table, so
// insertion and membership are O(1) and iteration is cache-friendly — the
// layout assumed by the paper's linear-time preprocessing.
//
// Instances (paper terminology) may contain labeled nulls; Database supports
// both: an S-database proper has no nulls, while chase results do.
#ifndef OMQE_DATA_DATABASE_H_
#define OMQE_DATA_DATABASE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/flat_hash.h"
#include "data/schema.h"
#include "data/value.h"

namespace omqe {

/// Reference to one fact: relation id plus row number.
struct FactRef {
  RelId rel;
  uint32_t row;

  friend bool operator==(const FactRef& a, const FactRef& b) {
    return a.rel == b.rel && a.row == b.row;
  }
};

class Database {
 public:
  explicit Database(Vocabulary* vocab) : vocab_(vocab) {}

  Vocabulary* vocab() const { return vocab_; }

  /// Makes the database immutable: AddFact / FreshNull / ReserveFacts abort
  /// afterwards. The prepared-query engine freezes chase results before
  /// sharing them across enumeration sessions, so an accidental write from a
  /// session is a deterministic failure instead of a cross-thread data race.
  void Freeze() { frozen_ = true; }
  bool frozen() const { return frozen_; }

  /// Pre-sizes relation `rel` for `additional_rows` more facts: one up-front
  /// sizing of the dedup table and tuple storage, so a bulk load performs no
  /// intermediate rehash. Safe to call on an unseen relation id.
  void ReserveFacts(RelId rel, uint32_t additional_rows);

  /// Adds a fact; returns false when it was already present.
  bool AddFact(RelId rel, const Value* args, uint32_t arity);
  bool AddFact(RelId rel, const ValueTuple& args) {
    return AddFact(rel, args.data(), args.size());
  }
  /// Convenience: add by names, interning as needed.
  bool AddFactByName(std::string_view rel, std::initializer_list<std::string_view> args);

  bool Contains(RelId rel, const Value* args, uint32_t arity) const;

  uint32_t NumRows(RelId rel) const {
    return rel < rels_.size() ? static_cast<uint32_t>(rels_[rel].rows) : 0;
  }
  uint32_t Arity(RelId rel) const { return vocab_->Arity(rel); }
  /// Pointer to the tuple of fact (rel, row).
  const Value* Row(RelId rel, uint32_t row) const {
    return rels_[rel].tuples.data() + static_cast<size_t>(row) * Arity(rel);
  }
  const Value* Row(const FactRef& f) const { return Row(f.rel, f.row); }
  /// Row-major storage of `rel`: NumRows(rel) rows of Arity(rel) values
  /// (nullptr for a relation without a slot).
  const Value* Rows(RelId rel) const {
    return rel < rels_.size() ? rels_[rel].tuples.data() : nullptr;
  }

  /// Number of relations this database has slots for (ids < this are valid
  /// to query; they may have zero rows).
  uint32_t NumRelationSlots() const { return static_cast<uint32_t>(rels_.size()); }

  /// Total number of facts.
  size_t TotalFacts() const;
  /// Total size ||D|| = sum of (1 + arity) over facts — the paper's measure.
  size_t SizeBound() const;

  /// Active domain: every value appearing in some fact, deduplicated.
  std::vector<Value> ActiveDomain() const;

  /// Largest null index in use plus one (0 when the database has no nulls).
  uint32_t NullHighWater() const { return null_high_water_; }
  /// Reserves a fresh null id.
  Value FreshNull() {
    OMQE_CHECK(!frozen_);
    return MakeNull(null_high_water_++);
  }
  bool HasNulls() const { return null_high_water_ > 0; }

  /// Pretty-prints up to `limit` facts (for examples and debugging).
  std::string ToString(size_t limit = 50) const;

  /// Dedup-table statistics for one relation (tests use this to assert that
  /// reserved bulk loads do not rehash).
  HashStats DedupStats(RelId rel) const {
    return rel < rels_.size() ? rels_[rel].dedup.Stats() : HashStats();
  }

 private:
  struct RelData {
    std::vector<Value> tuples;
    size_t rows = 0;
    TupleMap<char> dedup;
  };

  Vocabulary* vocab_;
  std::vector<RelData> rels_;
  uint32_t null_high_water_ = 0;
  bool frozen_ = false;
};

}  // namespace omqe

#endif  // OMQE_DATA_DATABASE_H_
