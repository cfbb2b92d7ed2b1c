// Differential fuzzing runner: cross-checks every enumeration mode of the
// prepared-query engine against the brute-force oracle on one generated
// case, SQLancer-style. One prepare backs all cursors (the production
// FromPrepared() path); the checks cover answer-set equality, duplicate
// freedom, complete-first ordering, interleaved and staggered multi-session
// runs, session Reset, and post-exhaustion cursor stability.
//
// On a mismatch, MinimizeSpec greedily shrinks the failing GenSpec to a
// local minimum that still fails, which is what gets committed to
// tests/corpus/ as a regression case.
#ifndef OMQE_WORKLOAD_DIFFERENTIAL_H_
#define OMQE_WORKLOAD_DIFFERENTIAL_H_

#include <cstdint>
#include <functional>
#include <string>

#include "chase/query_directed.h"
#include "workload/generator.h"

namespace omqe {

struct DiffOptions {
  DiffOptions() { chase.max_facts = 1u << 17; }

  /// Chase options for the prepare phase. The default caps the chase at 128k
  /// facts (three orders of magnitude above any well-behaved tiny instance): a tiny generated instance stays far below that, but a random
  /// guarded ontology with multi-existential heads can branch exponentially
  /// within the chase's depth bound (e.g. guarded_random seed 2208 grinds
  /// toward the 200M default for minutes). Such cases are reported as
  /// `chase_skipped`, not failures.
  QdcOptions chase;
  /// Brute-force multi-wildcard enumeration is exponential in the answer
  /// arity; cases above this arity skip the multi-wildcard cross-check (the
  /// other five checks still run).
  uint32_t max_multiwild_arity = 4;
  /// Run the interleaved / staggered / reset multi-session checks.
  bool check_sessions = true;
  /// Estimator pre-pass (chase/estimate.h): when the chase-size bound
  /// converges under `estimator_ceiling`, the per-case chase budget is
  /// raised to that bound — cases the 128k default would have skipped get
  /// checked, while genuine blowups (guarded_random seed 2208 chases toward
  /// 200M facts from 7 inputs) still abort at the small default budget.
  bool estimator_budget = true;
  size_t estimator_ceiling = 1u << 21;
};

/// Outcome of one differential run. `failure` names the first failing check
/// and embeds the serialized case, so a report is actionable on its own.
struct DiffReport {
  bool ok = true;
  std::string check;    // failing check name ("" when ok)
  std::string failure;  // human-readable detail ("" when ok)
  size_t complete_answers = 0;
  size_t partial_answers = 0;
  size_t multi_answers = 0;
  bool multiwild_skipped = false;
  /// The chase blew the DiffOptions fact budget; no checks ran (ok stays
  /// true — an oversized chase is a resource decision, not a mismatch).
  bool chase_skipped = false;
  /// The estimator pre-pass proved a larger budget safe and raised it.
  bool budget_raised = false;
};

/// Cross-checks one materialized case against the oracle.
DiffReport RunDifferential(const GeneratedCase& c,
                           const DiffOptions& options = DiffOptions());

/// Generates `spec` and cross-checks it.
DiffReport RunDifferentialSpec(const GenSpec& spec,
                               const DiffOptions& options = DiffOptions());

/// Greedily shrinks `spec` while `still_fails` holds: every numeric knob is
/// pushed toward its floor (try the floor, then repeated halving) until no
/// single-field shrink reproduces the failure. The seed and family are
/// preserved — a minimized spec replays the same bug, smaller.
GenSpec MinimizeSpec(GenSpec spec,
                     const std::function<bool(const GenSpec&)>& still_fails,
                     int max_rounds = 12);

}  // namespace omqe

#endif  // OMQE_WORKLOAD_DIFFERENTIAL_H_
