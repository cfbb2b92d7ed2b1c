// Single-testing (Section 3, Theorem 3.1): given Q, D and one candidate,
// decide membership in linear time (data complexity).
//
//  - Complete answers (weakly acyclic OMQs): bind the candidate into the
//    query and run Yannakakis' Boolean evaluation over the query-directed
//    chase — Theorem 3.1(1).
//  - Minimal partial answers, single wildcard (acyclic OMQs): test the
//    wildcard-quantified query, then refute minimality through the P_db
//    relation — Theorem 3.1(2) / Appendix C.1.
//  - Minimal partial answers, multi-wildcards (acyclic OMQs): merge
//    same-wildcard answer variables, test like the single-wildcard case,
//    and refute minimality over the family Q of coarsenings and P_db
//    strengthenings — Theorem 3.1(3) / Appendix C.1.
//
// Outside the tractable classes (e.g. a candidate whose bound query is
// cyclic) the tester stays correct by falling back to backtracking search;
// Theorem 3.1's linear-time guarantee then no longer applies.
#ifndef OMQE_CORE_SINGLE_TESTING_H_
#define OMQE_CORE_SINGLE_TESTING_H_

#include <memory>

#include "chase/query_directed.h"
#include "core/omq.h"

namespace omqe {

class SingleTester {
 public:
  /// Registers a fresh P_db relation in db's vocabulary (the minimality
  /// refutations need it), so the vocabulary must not be frozen yet:
  /// construct testers before Vocabulary::Freeze / before sharing the
  /// vocabulary across threads. Testing itself is read-only.
  static StatusOr<std::unique_ptr<SingleTester>> Create(
      const OMQ& omq, const Database& db, const QdcOptions& options = QdcOptions());

  /// ā ∈ Q(D)? `candidate` holds one constant per answer position.
  bool TestComplete(const ValueTuple& candidate) const;

  /// Is the single-wildcard tuple a (not necessarily minimal) partial
  /// answer? Entries are constants or kStar.
  bool TestPartial(const ValueTuple& candidate) const;

  /// ā ∈ Q(D)*? (minimal partial answers, single wildcard)
  bool TestMinimalPartial(const ValueTuple& candidate) const;

  /// Is the multi-wildcard tuple a (not necessarily minimal) partial answer
  /// with multi-wildcards? Entries are constants or MakeWildcard(j).
  bool TestMultiPartial(const ValueTuple& candidate) const;

  /// ā ∈ Q(D)^W? (minimal partial answers with multi-wildcards)
  bool TestMinimalMultiWildcard(const ValueTuple& candidate) const;

  const ChaseResult& chase() const { return *chase_; }

 private:
  SingleTester() = default;

  bool TestPartialOn(const CQ& q, const ValueTuple& candidate,
                     const Database& db) const;

  CQ query_;
  std::shared_ptr<const ChaseResult> chase_;
  /// chase db plus the P_db facts (one per database constant).
  std::unique_ptr<Database> with_pdb_;
  RelId pdb_ = 0;
};

}  // namespace omqe

#endif  // OMQE_CORE_SINGLE_TESTING_H_
