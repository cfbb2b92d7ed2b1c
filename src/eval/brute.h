// Reference CQ evaluation by backtracking join. This is the ground truth
// that the constant-delay pipeline is tested against, and the fallback for
// single-test patterns outside the tractable classes. Correct for arbitrary
// CQs (cyclic, self-joins, constants); no complexity guarantees.
#ifndef OMQE_EVAL_BRUTE_H_
#define OMQE_EVAL_BRUTE_H_

#include <functional>
#include <optional>
#include <memory>
#include <vector>

#include "cq/cq.h"
#include "data/database.h"
#include "data/index.h"

namespace omqe {

/// "No value" marker in assignments (not a valid Value).
constexpr Value kNoValue = 0xffffffffu;

class HomSearch {
 public:
  HomSearch(const CQ& q, const Database& db);

  /// Visits every homomorphism extending `pre` (entries != kNoValue are
  /// fixed). The callback gets the full assignment (indexed by variable id)
  /// and returns false to stop the search. Returns false iff stopped early.
  bool ForEachHom(const std::vector<Value>& pre,
                  const std::function<bool(const std::vector<Value>&)>& cb);

  /// True iff some homomorphism extends `pre`.
  bool HasHom(const std::vector<Value>& pre);

 private:
  struct CachedIndex {
    uint32_t atom;
    std::unique_ptr<RowIndex> index;
  };

  const RowIndex* IndexFor(uint32_t atom, const std::vector<uint32_t>& key_pos);
  bool Recurse(const std::vector<uint32_t>& order, size_t step,
               std::vector<Value>* assign,
               const std::function<bool(const std::vector<Value>&)>& cb);

  const CQ& q_;
  const Database& db_;
  std::vector<CachedIndex> cache_;
};

/// All answers of q on db (tuples over the answer variables, deduplicated;
/// values may include nulls when db does).
std::vector<ValueTuple> BruteAnswers(const CQ& q, const Database& db);

/// Complete answers: answers whose values are all constants
/// (q(ch) ∩ adom(D)^k, Lemma 3.2).
std::vector<ValueTuple> BruteCompleteAnswers(const CQ& q, const Database& db);

/// Minimal partial answers with a single wildcard: q(db)*_N (Lemma 2.3).
std::vector<ValueTuple> BruteMinimalPartialAnswers(const CQ& q, const Database& db);

/// Minimal partial answers with multi-wildcards: q(db)^W_N.
std::vector<ValueTuple> BruteMinimalMultiWildcardAnswers(const CQ& q,
                                                         const Database& db);

/// Sorts tuples lexicographically (normalizing answer sets for comparison).
void SortTuples(std::vector<ValueTuple>* tuples);

/// Explanation API: a homomorphism witnessing tuple ∈ q(db), as a value per
/// variable id (kNoValue for variables not occurring in any atom), or an
/// empty optional when the tuple is not an answer. Wildcard positions
/// (kStar / *_j) are treated as unconstrained except that equal
/// multi-wildcards must receive equal values.
std::optional<std::vector<Value>> WitnessHomomorphism(const CQ& q,
                                                      const Database& db,
                                                      const ValueTuple& tuple);

}  // namespace omqe

#endif  // OMQE_EVAL_BRUTE_H_
