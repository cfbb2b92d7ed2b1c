// Chase-size estimator: a cheap, sound upper bound on the number of facts
// the capped oblivious chase can create, computed from the ontology's
// arity/branching structure and the input's per-relation fact counts —
// without running the chase.
//
// Soundness rests on the chase's dedup discipline: a TGD fires at most once
// per distinct body-variable assignment, and for a *guarded* TGD the guard
// atom binds every body variable, so its total firings are bounded by the
// number of facts ever present in the guard relation. The estimator solves
// the induced monotone recurrence
//
//   C[r] >= input[r] + sum over (TGD t, head atom h in r) of F(t),
//   F(t)  = min over guard atoms g of t of C[g.rel]
//
// by fixpoint iteration, with fact counts stratified into classes that
// mirror the engine's depth accounting: a null-free class (whose firings
// create depth-1 nulls and are NEVER suppressed by the cap — this is what
// bounds chains of existential TGDs linked through null-free head atoms)
// and one class per null depth 1..cap (whose null-creating firings stop at
// the cap, which is what keeps depth-capped recursion like
// Person -> Parent -> Person finite). A cheap must-null position analysis
// decides when a projected head fact provably keeps a null; anything else
// is conservatively counted in both classes. When the iteration converges
// within the round budget, `fact_bound` dominates the capped chase of the
// same depth; when it blows through `budget` or fails to converge, the
// estimate is reported as exceeding — the conservative answer for
// admission control.
//
// Consumers: QueryRegistry::Prepare rejects exploding ontologies before
// paying for the chase (the fuzzer's guarded_random family shows why —
// seed 2208 chases toward the 200M-fact budget from 7 input facts), and
// the differential fuzzer raises its per-case chase budget when the bound
// proves it safe. The chase engine itself does not read the estimate: it
// sizes its tables exactly for the input facts and lets every table double
// from there.
#ifndef OMQE_CHASE_ESTIMATE_H_
#define OMQE_CHASE_ESTIMATE_H_

#include <cstdint>

#include "data/database.h"
#include "tgd/tgd.h"

namespace omqe {

struct ChaseEstimateOptions {
  /// Null-generation depth cap to bound against (ChaseOptions::null_depth /
  /// the query-directed chase's adaptive cap ceiling).
  uint32_t null_depth = 4;
  /// Declare `exceeds_budget` once the bound crosses this many facts.
  size_t budget = 200u * 1000 * 1000;
  /// Total fixpoint iterations before giving up. Non-convergence within
  /// this budget is reported as `exceeds_budget` (conservative).
  uint32_t max_rounds = 256;
};

struct ChaseEstimate {
  /// Upper bound on total chase facts (clamped at options.budget + 1 when
  /// exceeding). Only a sound bound when `converged`.
  size_t fact_bound = 0;
  /// Upper bound on nulls invented (same caveat).
  size_t null_bound = 0;
  /// The bound crossed the budget, or the iteration did not converge.
  bool exceeds_budget = false;
  /// Fixpoint reached within max_rounds.
  bool converged = false;
  uint32_t rounds = 0;
};

/// Bounds the capped oblivious chase of `input` under `onto`. Linear in
/// ||onto|| per round; never touches the data beyond per-relation counts.
ChaseEstimate EstimateChaseSize(const Database& input, const Ontology& onto,
                                const ChaseEstimateOptions& options = {});

}  // namespace omqe

#endif  // OMQE_CHASE_ESTIMATE_H_
