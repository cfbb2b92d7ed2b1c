// VarRelation: a materialized relation whose columns are query variables,
// stored as a plain row-major array. The Yannakakis passes, the (q1, D1)
// normalization and the enumerators all manipulate these: semijoin
// reduction and projection. Hash indexes over them are RowIndexes
// (data/index.h) keyed by ColumnsOf(variables).
//
// A relation is a set of rows without a table of its own: an atom's matches
// are distinct (see AddRow), a semijoin keeps a subset of its rows, and only
// Project can repeat a row, so it drops repeats itself.
#ifndef OMQE_EVAL_VARREL_H_
#define OMQE_EVAL_VARREL_H_

#include <algorithm>
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

  /// Pre-sizes storage for `rows` total rows.
  void Reserve(uint32_t rows) {
    data_.reserve(static_cast<size_t>(rows) * width());
  }

  /// Appends a row. The caller keeps the relation a set: MaterializeAtom
  /// adds one row per matching fact, and two distinct facts that match an
  /// atom differ at a variable position (constant positions and repeated
  /// variables are checked equal), so they give distinct rows.
  void AddRow(const Value* row) {
    data_.insert(data_.end(), row, row + width());
    ++num_rows_;
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

  /// Keeps only the rows for which `pred(row)` holds, in their order.
  template <typename Pred>
  void Filter(Pred&& pred) {
    uint32_t kept = 0;
    for (uint32_t r = 0; r < num_rows_; ++r) {
      if (!pred(Row(r))) continue;
      if (kept != r) {
        std::copy_n(Row(r), width(),
                    data_.begin() + static_cast<size_t>(kept) * width());
      }
      ++kept;
    }
    num_rows_ = kept;
    data_.resize(static_cast<size_t>(kept) * width());
  }

  /// Projection onto a subset of this relation's variables: each distinct
  /// projected row once, in order of first occurrence. The table that drops
  /// repeats is sized for this relation's rows, an upper bound, and freed
  /// on return.
  VarRelation Project(const std::vector<uint32_t>& onto_vars) const {
    VarRelation out(onto_vars);
    std::vector<uint32_t> cols = ColumnsOf(onto_vars);
    TupleMap<char> seen;
    seen.Reserve(num_rows_, static_cast<size_t>(num_rows_) * out.width());
    ValueTuple tmp;
    tmp.resize(out.width());
    for (uint32_t r = 0; r < num_rows_; ++r) {
      const Value* row = Row(r);
      for (uint32_t i = 0; i < cols.size(); ++i) tmp[i] = row[cols[i]];
      char& repeat = seen.InsertOrGet(tmp.data(), tmp.size(), 0);
      if (repeat) continue;
      repeat = 1;
      out.AddRow(tmp.data());
    }
    return out;
  }

 private:
  std::vector<uint32_t> vars_;
  std::vector<Value> data_;
  uint32_t num_rows_ = 0;
};

/// Shared variables of two relations, in `a`'s column order.
std::vector<uint32_t> SharedVars(const VarRelation& a, const VarRelation& b);

/// target := target semijoin source (keep target rows whose shared-variable
/// projection occurs in source). With no shared variables this keeps target
/// iff source is non-empty (cross-product semantics).
void SemijoinReduce(VarRelation* target, const VarRelation& source);

}  // namespace omqe

#endif  // OMQE_EVAL_VARREL_H_
