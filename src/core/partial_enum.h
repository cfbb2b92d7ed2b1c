// Enumeration of minimal partial answers with a single wildcard
// (Section 5, Theorem 5.2, Algorithm 1).
//
// Since the prepared-query split, this class is a thin convenience wrapper:
// PreparedOMQ runs the preprocessing phase (query-directed chase, (q1, D1)
// normalization keeping null values, progress-tree collection, Lemma 5.3)
// and EnumerationSession drives Algorithm 1's walk with per-session
// ≻db-pruning state (Prop 5.5). Create() = Prepare + one session; Reset()
// starts a fresh session over the same prepared artifact. Callers that want
// several (possibly concurrent) cursors over one preprocessing run should
// use PreparedOMQ + EnumerationSession directly (see core/prepared.h).
#ifndef OMQE_CORE_PARTIAL_ENUM_H_
#define OMQE_CORE_PARTIAL_ENUM_H_

#include <memory>
#include <vector>

#include "core/prepared.h"

namespace omqe {

class PartialEnumerator {
 public:
  /// Requires omq acyclic + free-connex acyclic with a guarded ontology and
  /// a null-free input database.
  static StatusOr<std::unique_ptr<PartialEnumerator>> Create(
      const OMQ& omq, const Database& db, const QdcOptions& options = QdcOptions());

  /// Wraps an already-prepared query (which must have for_partial() set);
  /// the expensive artifact is shared, only session state is allocated.
  static std::unique_ptr<PartialEnumerator> FromPrepared(
      std::shared_ptr<const PreparedOMQ> prepared);

  /// Next minimal partial answer; wildcard positions hold kStar.
  bool Next(ValueTuple* out) { return session_.Next(out); }

  /// Restarts the walk. The pruned list state is reusable (the paper's S'
  /// observation), so preprocessing is not repeated; the same answer set is
  /// produced again.
  void Reset() { session_.Reset(); }

  const ChaseResult& chase() const { return prepared_->chase(); }
  size_t num_progress_trees() const { return prepared_->num_progress_trees(); }
  const std::shared_ptr<const PreparedOMQ>& prepared() const { return prepared_; }

 private:
  explicit PartialEnumerator(std::shared_ptr<const PreparedOMQ> prepared)
      : prepared_(std::move(prepared)), session_(prepared_) {}

  std::shared_ptr<const PreparedOMQ> prepared_;
  EnumerationSession session_;
};

/// Convenience: materializes all minimal partial answers.
std::vector<ValueTuple> AllMinimalPartialAnswers(const OMQ& omq, const Database& db);

}  // namespace omqe

#endif  // OMQE_CORE_PARTIAL_ENUM_H_
