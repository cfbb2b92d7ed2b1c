// Cooperative cancellation and deadlines for long-running work.
//
// A CancelToken is the one-way signal a request handler hands to the code
// doing the work (chase rounds, prepare, session fetches): the owner can
// Cancel() it from any thread, and/or arm it with a steady-clock Deadline.
// Workers call Check() at checkpoints; a failed check returns
// Status::Cancelled or Status::DeadlineExceeded and the worker unwinds
// through the normal StatusOr error path, leaving no partial shared state
// (everything the chase/prepare built is owned by the aborted call).
//
// Check() is built for hot loops: the cancel flag is one relaxed atomic
// load every call, but the clock — the expensive part — is only consulted
// every kClockStride calls (the stride counter is shared across threads, so
// several workers polling one token still read the clock at the strided
// rate). A null token costs a single pointer compare via CheckCancel().
#ifndef OMQE_BASE_CANCEL_H_
#define OMQE_BASE_CANCEL_H_

#include <atomic>
#include <cstdint>

#include "base/status.h"
#include "base/timer.h"

namespace omqe {

/// A point on the steady clock. Default-constructed: never expires.
class Deadline {
 public:
  Deadline() = default;
  static Deadline Never() { return Deadline(); }
  /// Expires `ms` milliseconds from now. ms <= 0 means already expired —
  /// callers gate on their own "0 disables" convention before building one.
  static Deadline AfterMillis(int64_t ms) {
    Deadline d;
    d.at_ns_ = NowNanos() + ms * 1'000'000;
    return d;
  }

  bool never() const { return at_ns_ == INT64_MAX; }
  bool expired() const { return !never() && NowNanos() >= at_ns_; }
  /// Milliseconds until expiry, clamped at 0; INT64_MAX when never().
  int64_t remaining_ms() const {
    if (never()) return INT64_MAX;
    int64_t ns = at_ns_ - NowNanos();
    return ns <= 0 ? 0 : ns / 1'000'000;
  }

 private:
  int64_t at_ns_ = INT64_MAX;
};

class CancelToken {
 public:
  CancelToken() = default;
  explicit CancelToken(Deadline deadline) : deadline_(deadline) {}

  /// One-way: a cancelled token stays cancelled. Safe from any thread.
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const { return cancelled_.load(std::memory_order_acquire); }
  const Deadline& deadline() const { return deadline_; }

  /// Hot-loop checkpoint: flag every call, clock every kClockStride-th call
  /// (across all threads sharing the token). A deadline is therefore
  /// observed within O(stride) checkpoints of expiring — the stride is why
  /// the chase can afford a checkpoint per candidate.
  Status Check() const {
    if (cancelled_.load(std::memory_order_relaxed)) {
      return Status::Cancelled("operation cancelled");
    }
    if (!deadline_.never() &&
        (ticks_.fetch_add(1, std::memory_order_relaxed) % kClockStride) == 0 &&
        deadline_.expired()) {
      return Status::DeadlineExceeded("deadline exceeded");
    }
    return Status::OK();
  }

  /// Checkpoint that always consults the clock — for round boundaries and
  /// other coarse checkpoints where a stride-sized delay is not acceptable.
  Status CheckNow() const;

 private:
  static constexpr uint32_t kClockStride = 64;
  std::atomic<bool> cancelled_{false};
  mutable std::atomic<uint32_t> ticks_{0};
  Deadline deadline_;
};

/// The form hot paths use on an optional token: null is one compare.
inline Status CheckCancel(const CancelToken* token) {
  return token == nullptr ? Status::OK() : token->Check();
}

/// Coarse-checkpoint twin of CheckCancel (always reads the clock).
inline Status CheckCancelNow(const CancelToken* token) {
  return token == nullptr ? Status::OK() : token->CheckNow();
}

}  // namespace omqe

#endif  // OMQE_BASE_CANCEL_H_
