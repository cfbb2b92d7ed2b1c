// Enumeration of minimal partial answers with multi-wildcards
// (Section 6, Theorem 6.1, Algorithm 2).
//
// The driver combines:
//   A1 — the single-wildcard enumerator of Section 5 (PartialEnumerator);
//   A2 — a tester for (not necessarily minimal) partial answers with
//        multi-wildcards on the chase, i.e. membership in q(D)^{W,⊀}_N:
//        does some answer's canonical null-to-wildcard form equal the
//        candidate? Implemented per wildcard *pattern* (constantly many)
//        by merging same-wildcard answer variables and searching for a
//        homomorphism whose class values are pairwise distinct nulls;
//        results are memoized per candidate. The search is the oracle's
//        backtracking HomSearch, so this A2 lacks the constant-time test
//        that Theorem 6.1's delay bound assumes (ROADMAP.md, "Multi-wildcard
//        enumeration at Theorem 6.1's bound").
//
// For every minimal single-wildcard answer ā*, the candidates in the
// multi-wildcard cone of ā* are tested and buffered in the list L (with the
// lookup table F and ≻-pruning of Algorithm 2); one ≺-minimal member of the
// ball of ā* is output immediately, keeping the delay constant; L is
// flushed at the end.
#ifndef OMQE_CORE_MULTIWILD_ENUM_H_
#define OMQE_CORE_MULTIWILD_ENUM_H_

#include <memory>
#include <vector>

#include "core/prepared.h"
#include "core/wildcards.h"
#include "eval/brute.h"

namespace omqe {

/// A2: tests whether a canonical multi-wildcard tuple is the canonical form
/// of some answer of q on the (chase) database.
class CanonicalMultiTester {
 public:
  CanonicalMultiTester(const CQ& q, const Database& chase_db);

  bool Test(const ValueTuple& candidate);

 private:
  struct Pattern {
    ValueTuple shape;  // per position: 0 = constant, else wildcard index
    /// False when one answer variable carries two distinct wildcard classes:
    /// distinct classes must take pairwise distinct nulls, so no candidate
    /// with this shape is ever an answer (merged/search stay null).
    bool feasible = true;
    std::unique_ptr<CQ> merged;
    std::unique_ptr<HomSearch> search;
    std::vector<uint32_t> class_vars;  // merged representative per class
  };

  Pattern* PatternFor(const ValueTuple& candidate);

  const CQ& q_;
  const Database& db_;
  std::vector<std::unique_ptr<Pattern>> patterns_;
  TupleMap<char> memo_;  // candidate -> 1 (true) / 2 (false)
};

class MultiWildcardEnumerator {
 public:
  static StatusOr<std::unique_ptr<MultiWildcardEnumerator>> Create(
      const OMQ& omq, const Database& db, const QdcOptions& options = QdcOptions());

  /// Wraps an already-prepared query (which must have for_partial() set);
  /// only the per-session A1 walk and Algorithm 2 state are allocated, so
  /// many (possibly concurrent) multi-wildcard cursors can share one
  /// preprocessing run.
  static std::unique_ptr<MultiWildcardEnumerator> FromPrepared(
      std::shared_ptr<const PreparedOMQ> prepared);

  /// Next minimal partial answer with multi-wildcards (canonical numbering).
  bool Next(ValueTuple* out);

  const ChaseResult& chase() const { return prepared_->chase(); }
  const std::shared_ptr<const PreparedOMQ>& prepared() const { return prepared_; }

 private:
  explicit MultiWildcardEnumerator(std::shared_ptr<const PreparedOMQ> prepared)
      : prepared_(std::move(prepared)), a1_(prepared_) {}

  bool is_answer(const ValueTuple& t) { return tester_->Test(t); }
  void ProcessRound(const ValueTuple& star_answer, ValueTuple* out);
  void PruneAbove(const ValueTuple& answer);
  void RemoveFromL(const ValueTuple& t);

  std::shared_ptr<const PreparedOMQ> prepared_;
  EnumerationSession a1_;
  std::unique_ptr<CanonicalMultiTester> tester_;

  // Algorithm 2 state.
  TupleMap<char> f_;                       // the paper's lookup table F
  std::vector<ValueTuple> l_entries_;      // the list L (with alive flags)
  std::vector<bool> l_alive_;
  TupleMap<uint32_t> l_index_;             // tuple -> slot in l_entries_
  size_t flush_pos_ = 0;
  bool flushing_ = false;
  bool done_ = false;
};

/// Convenience: materializes all minimal multi-wildcard answers.
std::vector<ValueTuple> AllMinimalMultiWildcardAnswers(const OMQ& omq,
                                                       const Database& db);

}  // namespace omqe

#endif  // OMQE_CORE_MULTIWILD_ENUM_H_
