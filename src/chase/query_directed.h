// Query-directed chase ch_q^O(D) (paper Section 3, Proposition 3.3).
//
// Computes a finite prefix of ch_O(D) sufficient for evaluating the complete
// and (minimal) partial answers of q: the database part (null-free facts) is
// saturated adaptively — the null-depth cap is raised until an extra level
// derives no new database-part fact — and the null part is kept at least
// max(|var(q)|, #atoms(q)) + extra_depth levels deep, which bounds any
// excursion of (a subtree of) q into the null part. That depth stands in for
// the paper's finite construction of ch_q^O(D) (Prop 3.3, Appendix A.2);
// E13a (bench_ablation) measures what depth beyond it costs.
#ifndef OMQE_CHASE_QUERY_DIRECTED_H_
#define OMQE_CHASE_QUERY_DIRECTED_H_

#include <memory>

#include "chase/chase.h"
#include "cq/cq.h"

namespace omqe {

struct QdcOptions {
  /// Slack added on top of the query-derived minimum depth.
  uint32_t extra_depth = 2;
  /// Hard cap for the adaptive saturation.
  uint32_t max_depth = 24;
  /// When non-zero, overrides the query-derived minimum null depth. Use for
  /// ontologies whose oblivious chase branches heavily (e.g. the triangle
  /// gadgets) when a small excursion depth is known to suffice.
  uint32_t min_depth_override = 0;
  size_t max_facts = 200u * 1000 * 1000;
  /// Optional cooperative cancellation / deadline, forwarded into every
  /// underlying chase run and checked between adaptive-saturation
  /// iterations. Null (the default) disables all checks. Caller-owned.
  const CancelToken* cancel = nullptr;
};

/// The returned ChaseResult is a shared immutable artifact: its database is
/// frozen (Database::Freeze), and shared_ptr ownership lets one chase feed a
/// prepared query plus any number of enumeration sessions without copies
/// (see core/prepared.h). Note that SingleTester::Create additionally
/// registers a fresh P_db relation in the (shared, unfrozen) Vocabulary —
/// construct testers before freezing the vocabulary or sharing it across
/// threads.
StatusOr<std::shared_ptr<ChaseResult>> QueryDirectedChase(
    const Database& db, const Ontology& onto, const CQ& q,
    const QdcOptions& options = QdcOptions());

/// The minimum null-depth the pipeline requires for `q` (before slack).
uint32_t MinNullDepthFor(const CQ& q);

}  // namespace omqe

#endif  // OMQE_CHASE_QUERY_DIRECTED_H_
