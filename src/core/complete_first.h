// Proposition 2.1: a DelayClin enumerator for minimal partial answers that
// outputs the complete answers first, built by running the complete-answer
// enumerator and the partial-answer enumerator in parallel. While the
// complete enumerator still produces answers we emit those, pulling one
// partial answer per step and buffering the wildcard ones; afterwards,
// wildcard answers stream straight through and each late complete answer is
// replaced by a buffered one.
#ifndef OMQE_CORE_COMPLETE_FIRST_H_
#define OMQE_CORE_COMPLETE_FIRST_H_

#include <deque>
#include <memory>

#include "core/complete_enum.h"
#include "core/partial_enum.h"

namespace omqe {

class CompleteFirstEnumerator {
 public:
  static StatusOr<std::unique_ptr<CompleteFirstEnumerator>> Create(
      const OMQ& omq, const Database& db, const QdcOptions& options = QdcOptions()) {
    // One prepared artifact serves both enumerators: the chase runs once and
    // the two normalizations share its frozen database.
    PrepareOptions prepare;
    prepare.chase = options;
    prepare.for_complete = true;
    prepare.for_partial = true;
    auto prepared = PreparedOMQ::Prepare(omq, db, prepare);
    if (!prepared.ok()) return prepared.status();
    return FromPrepared(std::move(prepared).value());
  }

  /// Wraps an already-prepared query (needs for_complete() and
  /// for_partial()).
  static std::unique_ptr<CompleteFirstEnumerator> FromPrepared(
      std::shared_ptr<const PreparedOMQ> prepared) {
    auto e = std::unique_ptr<CompleteFirstEnumerator>(new CompleteFirstEnumerator());
    e->complete_ = CompleteEnumerator::FromPrepared(prepared);
    e->partial_ = PartialEnumerator::FromPrepared(std::move(prepared));
    return e;
  }

  bool Next(ValueTuple* out) {
    ValueTuple t;
    if (!complete_done_) {
      if (complete_->Next(out)) {
        // Pull one partial answer alongside; buffer it when it has a
        // wildcard, discard it when complete (it will be re-derived).
        if (partial_->Next(&t) && HasWildcard(t)) buffered_.push_back(t);
        return true;
      }
      complete_done_ = true;
    }
    while (partial_->Next(&t)) {
      if (HasWildcard(t)) {
        *out = t;
        return true;
      }
      // A late complete answer: emit a buffered wildcard answer instead.
      OMQE_CHECK(!buffered_.empty());
      *out = buffered_.front();
      buffered_.pop_front();
      return true;
    }
    if (!buffered_.empty()) {
      *out = buffered_.front();
      buffered_.pop_front();
      return true;
    }
    return false;
  }

 private:
  CompleteFirstEnumerator() = default;

  static bool HasWildcard(const ValueTuple& t) {
    for (Value v : t) {
      if (IsWildcard(v)) return true;
    }
    return false;
  }

  std::unique_ptr<CompleteEnumerator> complete_;
  std::unique_ptr<PartialEnumerator> partial_;
  std::deque<ValueTuple> buffered_;
  bool complete_done_ = false;
};

}  // namespace omqe

#endif  // OMQE_CORE_COMPLETE_FIRST_H_
