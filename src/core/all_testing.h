// All-testing of complete answers (Theorem 4.1(2), Proposition 4.2):
// after linear-time preprocessing, each candidate tuple is tested in
// constant time.
//
// The OMQ only needs to be *free-connex* acyclic (not acyclic): the join
// tree of q + G(x̄) decomposes q, after removing the guard G, into
// components q_1..q_k that are each acyclic and free-connex acyclic
// (Prop 4.2). Each component is normalized into full acyclic trees; the
// tester keeps, per tree node, only the node's variables and a hash set of
// its rows, and a candidate passes iff each node's projection of the
// candidate is in that node's set.
#ifndef OMQE_CORE_ALL_TESTING_H_
#define OMQE_CORE_ALL_TESTING_H_

#include <memory>
#include <vector>

#include "base/flat_hash.h"
#include "chase/query_directed.h"
#include "core/omq.h"

namespace omqe {

class AllTester {
 public:
  static StatusOr<std::unique_ptr<AllTester>> Create(
      const OMQ& omq, const Database& db, const QdcOptions& options = QdcOptions());

  /// Constant-time test: is `candidate` (constants, one per answer
  /// position) a certain answer?
  bool Test(const ValueTuple& candidate) const;

  const ChaseResult& chase() const { return *chase_; }

 private:
  AllTester() = default;

  /// The rows of one normalization tree node, as a set over its variables.
  struct NodeRows {
    std::vector<uint32_t> vars;
    TupleMap<char> rows;
  };

  std::vector<uint32_t> answer_vars_;
  uint32_t num_vars_ = 0;
  bool always_false_ = false;
  std::shared_ptr<const ChaseResult> chase_;
  /// Every node of every guard component's normalization trees.
  std::vector<NodeRows> nodes_;
};

}  // namespace omqe

#endif  // OMQE_CORE_ALL_TESTING_H_
