// The chase (paper Section 2, Appendix A.2).
//
// We run the fair oblivious chase with a cap on *null generation depth*:
// database values have depth 0 and a null created by a TGD application gets
// depth max(depth of body values) + 1. Every TGD application whose head has
// no existential variables always fires; null-creating applications fire
// only while within the cap. For a fixed ontology and cap the result has
// size linear in ||D||.
//
// The full chase ch_O(D) is infinite in general; what the paper's
// enumeration pipeline needs is the *query-directed* chase ch_q^O(D)
// (Prop 3.3): enough of the chase to preserve all (partial) answers of q.
// QueryDirectedChase() in query_directed.h computes the cap adaptively so
// that (a) the database part (facts without nulls) is saturated and (b) the
// null part is deeper than any excursion q can make (query_directed.h says
// how deep).
//
// Source tracking. Every fact containing a null is assigned to a *block*
// rooted at the null-free guard fact of the application that first left the
// database part (the paper's source() function, Appendix A.2). Blocks are
// exactly the witnesses D'_1,...,D'_n of the chase-like structure
// (Lemma C.3) consumed by the Section 5 preprocessing.
#ifndef OMQE_CHASE_CHASE_H_
#define OMQE_CHASE_CHASE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "base/cancel.h"
#include "data/database.h"
#include "tgd/tgd.h"

namespace omqe {

enum class ChaseMode {
  /// The paper's fair oblivious chase: a TGD fires at every body match,
  /// even when its head is already satisfied (Section 2).
  kOblivious,
  /// The restricted (standard) chase: a null-creating application is
  /// skipped when the head already has a match extending the frontier.
  /// Produces a smaller universal model; all certain-answer and
  /// minimal-partial-answer semantics are preserved (Lemma A.1 only needs
  /// a universal model), which bench_ablation quantifies.
  kRestricted,
};

struct ChaseOptions {
  ChaseMode mode = ChaseMode::kOblivious;
  /// Cap on null generation depth.
  uint32_t null_depth = 4;
  /// Abort (ResourceExhausted) if the instance exceeds this many facts.
  size_t max_facts = 200u * 1000 * 1000;
  /// Optional cooperative cancellation / deadline. Checked at every
  /// delta-round boundary, every candidate application, and (strided) per
  /// delta fact and per candidate of the match phase, so a cancel or an
  /// expired deadline aborts the chase with Status::Cancelled /
  /// DeadlineExceeded within a bounded amount of work. Null (the default)
  /// costs one pointer compare per checkpoint. The token is read-only here;
  /// the caller owns it.
  const CancelToken* cancel = nullptr;
};

/// A chase-like block: the null-free guard fact it hangs off (absent for
/// heads of TGDs with empty body) plus all facts that contain a null from
/// this block.
struct ChaseBlock {
  bool has_source = false;
  RelId source_rel = 0;
  ValueTuple source_tuple;
  std::vector<FactRef> facts;
};

/// Observability counters for one chase run (the artifact's final RunChase
/// when the query-directed saturation runs several). The server exports
/// them as omqe_chase_*_total metrics; chase_test asserts the invariants
/// (inventions equal the null high water growth, every fired application
/// was first a candidate).
struct ChaseStats {
  uint64_t rounds = 0;           ///< delta rounds run
  /// Candidates emitted by phase A, repeats included: a body assignment
  /// reached from k of its delta atoms in one round counts k times.
  uint64_t candidates = 0;
  uint64_t applied = 0;          ///< applications actually fired
  uint64_t nulls_invented = 0;   ///< fresh nulls created by firings
  uint64_t match_nanos = 0;      ///< wall time in phase A (match)
  uint64_t apply_nanos = 0;      ///< wall time in phase B (apply)
};

struct ChaseResult {
  explicit ChaseResult(Vocabulary* vocab) : db(vocab) {}

  Database db;
  std::vector<ChaseBlock> blocks;
  /// Per null index: block id, or UINT32_MAX for nulls already in the input.
  std::vector<uint32_t> null_block;
  /// True when some null-creating application was suppressed by the cap
  /// (i.e. db is a strict prefix of the full chase's null part).
  bool truncated = false;
  uint32_t cap_used = 0;
  /// Number of facts without nulls (the database part).
  size_t db_part_facts = 0;
  /// Phase timings and counters (see ChaseStats).
  ChaseStats stats;
};

/// Runs the capped oblivious chase of `input` with `onto`. The input may
/// contain nulls (Lemma A.2-style tests); such nulls belong to no block.
StatusOr<std::unique_ptr<ChaseResult>> RunChase(const Database& input,
                                                const Ontology& onto,
                                                const ChaseOptions& options);

/// Grounds the datalog fragment (TGDs without existential variables) of
/// `onto` over `input` into a propositional Horn formula and returns the
/// facts in its minimal model. Exercises the Dowling-Gallier engine behind
/// Proposition 3.3; equals the chase's database part when the ontology is
/// existential-free.
std::unique_ptr<Database> HornDatalogSaturation(const Database& input,
                                                const Ontology& onto,
                                                Vocabulary* vocab);

}  // namespace omqe

#endif  // OMQE_CHASE_CHASE_H_
