// SessionManager: multiplexes many live enumeration cursors over the
// registry's prepared queries.
//
// A managed session wraps one EnumerationSession (partial answers) or
// CompleteSession (complete answers) plus serving state: a per-session
// row budget, a last-use timestamp for idle reaping, and a private mutex
// so two connections fetching on the same id serialize instead of racing.
// Opening a session is O(1) — it reuses a link buffer a closed session
// handed back, so spin-up does not scale with the progress-tree count
// (server_test asserts this through PreparedOMQ::link_buffers_allocated).
//
// Concurrency: the sid -> session map is one unordered_map guarded by one
// CountedMutex. Lookup — and therefore every Fetch/Reset/OverlayStats —
// holds it just long enough to copy the session's shared_ptr out, then
// steps the cursor under the session's own mutex: a FETCH takes one manager
// lock per call, never one per answer (server_test pins this). Writers
// (Open/Close/ReapIdle/CloseAll) change the map under the same lock. Closing
// moves the session's reference out under the lock and drops it after the
// lock is released, so a session destructor (which returns its link buffer,
// possibly to the last reference to a PreparedOMQ) never runs under a lock.
// Sids are never reused.
#ifndef OMQE_SERVER_SESSION_MANAGER_H_
#define OMQE_SERVER_SESSION_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "base/cancel.h"
#include "base/counted_mutex.h"
#include "base/metrics.h"
#include "core/prepared.h"

namespace omqe::server {

struct SessionLimits {
  /// Rows a session may emit across all fetches; 0 = unlimited. A session
  /// at its budget reports done (budget_exhausted ticks) until Reset.
  uint64_t max_rows = 0;
  /// Sessions idle longer than this are eligible for ReapIdle; 0 = never.
  int64_t idle_timeout_ms = 0;
  /// Open() fails once this many sessions are live; 0 = unlimited.
  size_t max_sessions = 0;
  /// Per-Fetch wall-clock deadline in milliseconds; 0 = none. A fetch past
  /// its deadline returns the rows gathered so far with *done = false (a
  /// partial batch, NOT an error: the rows were already consumed from the
  /// cursor and dropping them would silently skip answers). The client sees
  /// a short batch and re-FETCHes; fetch_deadline_hits counts occurrences.
  /// A deadline that expires before the FIRST row is the exception: there
  /// is nothing to return, so the fetch fails with DeadlineExceeded
  /// (retryable) instead of an empty not-done batch the client would spin
  /// on (fetch_deadline_empty counts these).
  uint64_t fetch_deadline_ms = 0;
};

class SessionManager {
 public:
  /// `metrics` is where the manager's counters and the per-answer
  /// enumeration-delay histogram live (null = a private registry). The
  /// counters ARE the bookkeeping; METRICS renders them.
  explicit SessionManager(SessionLimits limits = {},
                          metrics::Registry* metrics = nullptr);
  ~SessionManager();

  /// Opens a cursor over `prepared` (complete or partial mode; the artifact
  /// must have the matching normalization). Returns the session id.
  StatusOr<uint64_t> Open(std::shared_ptr<const PreparedOMQ> prepared,
                          bool complete);

  /// Steps the cursor up to `n` answers, appending to *out. *done is set
  /// when the cursor is exhausted or the row budget is spent.
  Status Fetch(uint64_t sid, uint64_t n, std::vector<ValueTuple>* out,
               bool* done);

  /// Fetch under an explicit deadline (Fetch derives its deadline from
  /// limits_ and delegates here). Public as the deterministic seam for
  /// deadline regression tests. Zero rows + expired deadline returns
  /// DeadlineExceeded; any gathered rows return OK as a partial batch.
  Status FetchWithDeadline(uint64_t sid, uint64_t n, Deadline deadline,
                           std::vector<ValueTuple>* out, bool* done);

  /// Restarts the cursor and its row budget (preprocessing is shared and
  /// never repeated; the pruned overlay stays valid per the S' observation).
  Status Reset(uint64_t sid);

  Status Close(uint64_t sid);

  /// Closes every session idle past the limit; returns how many. A session
  /// that has never been fetched or reset is skipped the first time it is
  /// seen past the cutoff: OPEN stamps the clock, but with a short timeout
  /// the reaper could otherwise close the session in the window between the
  /// OK OPEN response and the client's first FETCH — which then fails with
  /// "unknown session" though the client did nothing wrong. One grace
  /// cycle bounds the overstay at two reaper ticks while keeping the
  /// open-then-fetch round trip safe at any timeout.
  size_t ReapIdle();

  /// Closes every live session (server drain). Returns how many. In-flight
  /// fetches finish on their shared_ptr references as usual.
  size_t CloseAll();

  /// Link-buffer counters of a live partial session (server_test's
  /// O(1)-open assertion). NotFound for an unknown sid, InvalidArgument for
  /// a complete session.
  StatusOr<LinkOverlay::Stats> OverlayStats(uint64_t sid) const;

  size_t live_sessions() const;

 private:
  struct Session {
    /// Serializes cursor stepping; ReapIdle's try_lock reads "held" as
    /// "in use".
    std::mutex mu;
    std::unique_ptr<EnumerationSession> partial;  // exactly one of the two
    std::unique_ptr<CompleteSession> complete;
    uint64_t rows_emitted = 0;  // guarded by mu
    /// Atomic: ReapIdle reads it concurrently with fetches that store it
    /// under the session lock.
    std::atomic<int64_t> last_used_ns{0};
    /// The client has fetched or reset at least once (guarded by mu).
    /// Until then the session is in its open-to-first-fetch window and
    /// ReapIdle defers it one cycle (see ReapIdle's contract).
    bool used = false;
    /// ReapIdle already granted this never-used session its grace cycle.
    bool reap_deferred = false;
  };

  /// The session for `sid`, or nullptr. Takes mu_ for the lookup only.
  std::shared_ptr<Session> Lookup(uint64_t sid) const;

  SessionLimits limits_;
  std::atomic<uint64_t> next_sid_{1};
  /// Admission counter: sessions live plus opens past admission. Open
  /// reserves here before inserting, so max_sessions is exact.
  std::atomic<uint64_t> live_{0};
  mutable CountedMutex mu_;
  std::unordered_map<uint64_t, std::shared_ptr<Session>>
      sessions_;  // guarded by mu_

  /// Backing store when no external metric registry was injected.
  std::unique_ptr<metrics::Registry> owned_metrics_;
  metrics::Registry* metrics_ = nullptr;
  /// Hot-path bookkeeping: lock-free striped metric counters, cached as raw
  /// pointers at construction so Fetch never touches the registry map. The
  /// flagship is enum_delay — the per-answer inter-answer delay histogram
  /// that makes the paper's constant-delay guarantee a number the server
  /// reports (p50/p99/max via METRICS).
  struct Counters {
    metrics::Counter* opened;
    metrics::Counter* closed;
    metrics::Counter* reaped;
    metrics::Counter* fetch_calls;
    metrics::Counter* rows;
    metrics::Counter* resets;
    metrics::Counter* budget_exhausted;
    metrics::Counter* open_rejected;
    metrics::Counter* fetch_deadline_hits;
    metrics::Counter* fetch_deadline_empty;
    metrics::Histogram* enum_delay;
    metrics::Gauge* live;  ///< callback view over live_
  };
  Counters m_;
};

}  // namespace omqe::server

#endif  // OMQE_SERVER_SESSION_MANAGER_H_
