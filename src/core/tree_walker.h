// TreeWalker: constant-delay traversal of the assignments of a normalized
// query forest. The slots are the trees' nodes, one tree after another;
// each tree stores its nodes in preorder, so a parent's slot precedes its
// children's. For each slot, candidate rows come from the node's index
// keyed by the already-bound predecessor variables. Thanks to the progress
// condition the walk never dead-ends, so the delay between two assignments
// is bounded by the (constant) number of slots.
#ifndef OMQE_CORE_TREE_WALKER_H_
#define OMQE_CORE_TREE_WALKER_H_

#include <vector>

#include "eval/brute.h"  // for kNoValue
#include "eval/normalize.h"

namespace omqe {

class TreeWalker {
 public:
  /// `norm` must outlive the walker. `num_vars` sizes the assignment.
  TreeWalker(const Normalized* norm, uint32_t num_vars)
      : norm_(norm), assign_(num_vars, kNoValue) {
    for (const NormTree& tree : norm->trees) {
      for (const NormNode& node : tree.nodes) slots_.push_back(&node);
    }
    Reset();
  }

  void Reset() {
    rows_.assign(slots_.size(), kFresh);
    started_ = false;
    exhausted_ = norm_->empty;
  }

  /// Advances to the next full assignment; false when exhausted. The
  /// current assignment (indexed by q0 variable id) is in assignment().
  bool Next() {
    if (exhausted_) return false;
    if (slots_.empty()) {
      // Boolean or fully-Boolean query: a single empty assignment.
      exhausted_ = true;
      return true;
    }
    int pos = started_ ? static_cast<int>(slots_.size()) - 1 : 0;
    started_ = true;
    while (true) {
      if (pos < 0) {
        exhausted_ = true;
        return false;
      }
      const NormNode& node = *slots_[pos];
      uint32_t row;
      if (rows_[pos] == kFresh) {
        // First visit at this position: look up by the predecessor key.
        key_.clear();
        for (uint32_t v : node.pred_vars) key_.push_back(assign_[v]);
        row = node.index.First(key_.data());
      } else {
        row = node.index.Next(rows_[pos]);
      }
      if (row == UINT32_MAX) {
        rows_[pos] = kFresh;
        --pos;
        continue;
      }
      rows_[pos] = row;
      const Value* tuple = node.rel.Row(row);
      for (size_t i = 0; i < node.vars.size(); ++i) assign_[node.vars[i]] = tuple[i];
      ++pos;
      if (pos == static_cast<int>(slots_.size())) return true;
      rows_[pos] = kFresh;
    }
  }

  const std::vector<Value>& assignment() const { return assign_; }

 private:
  static constexpr uint32_t kFresh = 0xfffffffeu;

  const Normalized* norm_;
  std::vector<const NormNode*> slots_;  // one per node, in slot order
  std::vector<uint32_t> rows_;
  std::vector<Value> assign_;
  ValueTuple key_;
  bool started_ = false;
  bool exhausted_ = false;
};

}  // namespace omqe

#endif  // OMQE_CORE_TREE_WALKER_H_
