// VarRelation: a materialized relation whose columns are query variables.
// The Yannakakis passes, the (q1, D1) normalization and the enumerators all
// manipulate these: semijoin reduction and projection. Hash indexes over
// them are RowIndexes (data/index.h) keyed by ColumnsOf(variables).
#ifndef OMQE_EVAL_VARREL_H_
#define OMQE_EVAL_VARREL_H_

#include <cstdint>
#include <vector>

#include "base/flat_hash.h"
#include "data/value.h"

namespace omqe {

class VarRelation {
 public:
  VarRelation() = default;
  explicit VarRelation(std::vector<uint32_t> vars) : vars_(std::move(vars)) {}

  const std::vector<uint32_t>& vars() const { return vars_; }
  uint32_t width() const { return static_cast<uint32_t>(vars_.size()); }
  uint32_t NumRows() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  const Value* Row(uint32_t r) const {
    return data_.data() + static_cast<size_t>(r) * width();
  }

  /// Pre-sizes storage and the dedup table for `rows` total rows: one
  /// up-front sizing, so a bulk AddRow load performs no intermediate rehash.
  void Reserve(uint32_t rows) {
    if (width() == 0) return;
    data_.reserve(static_cast<size_t>(rows) * width());
    dedup_.Reserve(rows, static_cast<size_t>(rows) * width());
  }

  /// Appends a row unless an identical row is present; returns true if added.
  bool AddRow(const Value* row) {
    if (width() == 0) {
      if (num_rows_ > 0) return false;
      ++num_rows_;
      return true;
    }
    char& seen = dedup_.InsertOrGet(row, width(), 0);
    if (seen) return false;
    seen = 1;
    data_.insert(data_.end(), row, row + width());
    ++num_rows_;
    return true;
  }

  bool ContainsRow(const Value* row) const {
    if (width() == 0) return num_rows_ > 0;
    return dedup_.Find(row, width()) != nullptr;
  }

  /// Position of variable `v` in the column list, or UINT32_MAX.
  uint32_t ColumnOf(uint32_t v) const {
    for (uint32_t i = 0; i < vars_.size(); ++i) {
      if (vars_[i] == v) return i;
    }
    return UINT32_MAX;
  }

  /// Positions of `vars` (each one of this relation's variables).
  std::vector<uint32_t> ColumnsOf(const std::vector<uint32_t>& vars) const {
    std::vector<uint32_t> cols;
    cols.reserve(vars.size());
    for (uint32_t v : vars) {
      uint32_t c = ColumnOf(v);
      OMQE_CHECK(c != UINT32_MAX);
      cols.push_back(c);
    }
    return cols;
  }

  /// Keeps only the rows for which `pred(row)` holds.
  template <typename Pred>
  void Filter(Pred&& pred) {
    VarRelation fresh(vars_);
    fresh.Reserve(num_rows_);
    for (uint32_t r = 0; r < num_rows_; ++r) {
      if (pred(Row(r))) fresh.AddRow(Row(r));
    }
    *this = std::move(fresh);
  }

  /// Releases over-reserved storage: shrinks the tuple data to fit and
  /// rebuilds the dedup table sized for the actual row count. O(rows); a
  /// no-op gain unless the relation was reserved far beyond its final size.
  void ShrinkToFit() {
    if (width() == 0) return;
    data_.shrink_to_fit();
    TupleMap<char> fresh;
    fresh.Reserve(num_rows_, static_cast<size_t>(num_rows_) * width());
    for (uint32_t r = 0; r < num_rows_; ++r) {
      fresh.InsertOrGet(Row(r), width(), 1);
    }
    dedup_ = std::move(fresh);
  }

  /// Dedup-table statistics (tests assert that heavily collapsing
  /// projections do not retain source-row-count capacity).
  HashStats DedupStats() const { return dedup_.Stats(); }

  /// Projection onto a subset of this relation's variables (deduplicated).
  /// The output is reserved for the source row count (the upper bound);
  /// heavily collapsing projections shrink back to their deduped size.
  VarRelation Project(const std::vector<uint32_t>& onto_vars) const {
    VarRelation out(onto_vars);
    out.Reserve(num_rows_);
    std::vector<uint32_t> cols = ColumnsOf(onto_vars);
    ValueTuple tmp;
    tmp.resize(static_cast<uint32_t>(cols.size()));
    for (uint32_t r = 0; r < num_rows_; ++r) {
      const Value* row = Row(r);
      for (uint32_t i = 0; i < cols.size(); ++i) tmp[i] = row[cols[i]];
      out.AddRow(tmp.data());
    }
    if (out.num_rows_ * 2 <= num_rows_) out.ShrinkToFit();
    return out;
  }

 private:
  std::vector<uint32_t> vars_;
  std::vector<Value> data_;
  uint32_t num_rows_ = 0;
  TupleMap<char> dedup_;
};

/// Shared variables of two relations, in `a`'s column order.
std::vector<uint32_t> SharedVars(const VarRelation& a, const VarRelation& b);

/// target := target semijoin source (keep target rows whose shared-variable
/// projection occurs in source). With no shared variables this keeps target
/// iff source is non-empty (cross-product semantics).
void SemijoinReduce(VarRelation* target, const VarRelation& source);

}  // namespace omqe

#endif  // OMQE_EVAL_VARREL_H_
