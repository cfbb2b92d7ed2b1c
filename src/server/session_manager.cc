#include "server/session_manager.h"

#include "base/fault.h"
#include "base/timer.h"
#include "base/trace.h"

namespace omqe::server {

SessionManager::SessionManager(SessionLimits limits,
                               metrics::Registry* metrics)
    : limits_(limits) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<metrics::Registry>();
    metrics = owned_metrics_.get();
  }
  metrics_ = metrics;
  m_.opened = metrics_->GetCounter("omqe_sessions_opened_total");
  m_.closed = metrics_->GetCounter("omqe_sessions_closed_total");
  m_.reaped = metrics_->GetCounter("omqe_sessions_reaped_total");
  m_.fetch_calls = metrics_->GetCounter("omqe_fetch_calls_total");
  m_.rows = metrics_->GetCounter("omqe_rows_emitted_total");
  m_.resets = metrics_->GetCounter("omqe_session_resets_total");
  m_.budget_exhausted = metrics_->GetCounter("omqe_budget_exhausted_total");
  m_.open_rejected = metrics_->GetCounter("omqe_open_rejected_total");
  m_.fetch_deadline_hits =
      metrics_->GetCounter("omqe_fetch_deadline_hits_total");
  m_.fetch_deadline_empty =
      metrics_->GetCounter("omqe_fetch_deadline_empty_total");
  m_.enum_delay = metrics_->GetHistogram("omqe_enum_delay_ns");
  m_.live = metrics_->GetGauge("omqe_sessions_live");
  m_.live->SetCallback([this]() -> int64_t {
    return static_cast<int64_t>(live_.load(std::memory_order_relaxed));
  });
}

SessionManager::~SessionManager() {
  // The gauge callback captures `this`; unbind so a metric registry that
  // outlives the manager can still render safely.
  m_.live->SetCallback(nullptr);
  CloseAll();
}

std::shared_ptr<SessionManager::Session> SessionManager::Lookup(
    uint64_t sid) const {
  std::lock_guard<CountedMutex> lock(mu_);
  auto it = sessions_.find(sid);
  return it == sessions_.end() ? nullptr : it->second;
}

StatusOr<uint64_t> SessionManager::Open(
    std::shared_ptr<const PreparedOMQ> prepared, bool complete) {
  if (prepared == nullptr) {
    return Status::InvalidArgument("no prepared query");
  }
  if (complete && !prepared->for_complete()) {
    return Status::InvalidArgument("query was not prepared for complete mode");
  }
  if (!complete && !prepared->for_partial()) {
    return Status::InvalidArgument("query was not prepared for partial mode");
  }
  // Reserve a live slot up front: the fetch_add is the admission point, so
  // the cap is exact under concurrent opens and a client hammering OPEN at
  // the limit allocates nothing.
  const uint64_t before = live_.fetch_add(1, std::memory_order_acq_rel);
  if (limits_.max_sessions > 0 && before >= limits_.max_sessions) {
    live_.fetch_sub(1, std::memory_order_acq_rel);
    m_.open_rejected->Inc();
    return Status::ResourceExhausted("session limit reached");
  }
  auto session = std::make_shared<Session>();
  if (complete) {
    session->complete = std::make_unique<CompleteSession>(std::move(prepared));
  } else {
    session->partial = std::make_unique<EnumerationSession>(std::move(prepared));
  }
  session->last_used_ns = NowNanos();
  const uint64_t sid = next_sid_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<CountedMutex> lock(mu_);
    sessions_.emplace(sid, std::move(session));
  }
  m_.opened->Inc();
  return sid;
}

Status SessionManager::Fetch(uint64_t sid, uint64_t n,
                             std::vector<ValueTuple>* out, bool* done) {
  const Deadline deadline =
      limits_.fetch_deadline_ms > 0
          ? Deadline::AfterMillis(static_cast<int64_t>(limits_.fetch_deadline_ms))
          : Deadline::Never();
  return FetchWithDeadline(sid, n, deadline, out, done);
}

Status SessionManager::FetchWithDeadline(uint64_t sid, uint64_t n,
                                         Deadline deadline,
                                         std::vector<ValueTuple>* out,
                                         bool* done) {
  std::shared_ptr<Session> session = Lookup(sid);
  if (session == nullptr) return Status::NotFound("unknown session");
  if (FaultFires(kFaultSessionFetch)) {
    // Fire BEFORE stepping the cursor: an injected fetch fault must never
    // consume answers the client will not see.
    return Status::Internal("injected fault at session.fetch");
  }
  trace::ScopedSpan fetch_span("session.fetch", 0);
  uint64_t emitted = 0;
  bool exhausted = false;
  bool budget_hit = false;
  bool deadline_hit = false;
  {
    std::lock_guard<std::mutex> lock(session->mu);
    // Stamp at start as well as end: a single fetch that outlasts the idle
    // timeout must not look idle to a concurrent ReapIdle.
    int64_t prev_ns = NowNanos();
    session->last_used_ns = prev_ns;
    session->used = true;
    ValueTuple t;
    while (emitted < n) {
      if (limits_.max_rows > 0 && session->rows_emitted >= limits_.max_rows) {
        budget_hit = true;
        break;
      }
      // Deadline checkpoint every 128 rows: the rows already gathered are
      // returned (they left the cursor; dropping them would silently skip
      // answers) and *done stays false so the client simply re-fetches.
      if (!deadline.never() && (emitted & 127) == 0 && deadline.expired()) {
        deadline_hit = true;
        break;
      }
      bool more = session->partial != nullptr ? session->partial->Next(&t)
                                              : session->complete->Next(&t);
      if (!more) {
        exhausted = true;
        break;
      }
      // Per-answer enumeration delay — the constant-delay SLO itself. One
      // clock read plus a striped-histogram record per row, both lock-free
      // (server_test pins that a FETCH's lock count does not grow with its
      // row count).
      const int64_t now_ns = NowNanos();
      m_.enum_delay->Record(static_cast<uint64_t>(now_ns - prev_ns));
      prev_ns = now_ns;
      out->push_back(t);
      ++emitted;
      ++session->rows_emitted;
    }
    session->last_used_ns = NowNanos();
  }
  fetch_span.set_arg(emitted);
  m_.fetch_calls->Inc();
  m_.rows->Inc(emitted);
  if (budget_hit) m_.budget_exhausted->Inc();
  if (deadline_hit) {
    m_.fetch_deadline_hits->Inc();
    if (emitted == 0) {
      // Bugfix (empty-batch deadline spin): the checkpoint above includes
      // emitted == 0, so a deadline that expires before the first row used
      // to produce an empty batch with done=false — a loaded client would
      // spin on empty FETCHes with no retryable signal. With nothing
      // gathered there is nothing to lose: fail retryably instead.
      m_.fetch_deadline_empty->Inc();
      *done = false;
      return Status::DeadlineExceeded(
          "fetch deadline expired before the first row");
    }
  }
  *done = exhausted || budget_hit;
  return Status::OK();
}

Status SessionManager::Reset(uint64_t sid) {
  std::shared_ptr<Session> session = Lookup(sid);
  if (session == nullptr) return Status::NotFound("unknown session");
  {
    std::lock_guard<std::mutex> lock(session->mu);
    if (session->partial != nullptr) {
      session->partial->Reset();
    } else {
      session->complete->Reset();
    }
    session->rows_emitted = 0;
    session->last_used_ns = NowNanos();
    session->used = true;
  }
  m_.resets->Inc();
  return Status::OK();
}

Status SessionManager::Close(uint64_t sid) {
  std::shared_ptr<Session> closed;
  {
    std::lock_guard<CountedMutex> lock(mu_);
    auto it = sessions_.find(sid);
    if (it == sessions_.end()) return Status::NotFound("unknown session");
    closed = std::move(it->second);
    sessions_.erase(it);
  }
  live_.fetch_sub(1, std::memory_order_relaxed);
  m_.closed->Inc();
  // Bugfix (teardown under the manager lock): the session — cursor, overlay
  // and possibly the last artifact reference — is destroyed here, with
  // zero locks held, so a heavy teardown never stalls Open/Lookup.
  OMQE_CHECK(CountedMutex::HeldByThisThread() == 0);
  closed.reset();
  return Status::OK();
}

size_t SessionManager::CloseAll() {
  std::unordered_map<uint64_t, std::shared_ptr<Session>> closed;
  {
    std::lock_guard<CountedMutex> lock(mu_);
    closed.swap(sessions_);
  }
  const size_t n = closed.size();
  live_.fetch_sub(n, std::memory_order_acq_rel);
  m_.closed->Inc(n);
  OMQE_CHECK(CountedMutex::HeldByThisThread() == 0);
  closed.clear();
  return n;
}

size_t SessionManager::ReapIdle() {
  if (limits_.idle_timeout_ms <= 0) return 0;
  const int64_t cutoff = NowNanos() - limits_.idle_timeout_ms * 1'000'000;
  std::vector<std::shared_ptr<Session>> reaped;
  {
    std::lock_guard<CountedMutex> lock(mu_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      Session& s = *it->second;
      // A session whose lock is held is mid-fetch/reset — actively in use
      // no matter what its start-of-fetch timestamp says — so skip it (the
      // try_lock is safe: cursor work never waits on mu_). Otherwise a
      // stale timestamp can only delay a reap by one cycle, and an
      // in-flight fetch elsewhere keeps its shared_ptr, so erasing here
      // never frees live state.
      bool idle = false;
      if (s.mu.try_lock()) {
        idle = s.last_used_ns.load(std::memory_order_relaxed) < cutoff;
        // Never-used sessions are in the open-to-first-fetch window: with
        // a short timeout the open stamp alone can be past the cutoff
        // before the client's FETCH arrives, and reaping here turns a
        // well-behaved open-then-fetch into "unknown session". Defer
        // exactly once; a session still unfetched on the next cycle really
        // is abandoned.
        if (idle && !s.used && !s.reap_deferred) {
          s.reap_deferred = true;
          idle = false;
        }
        s.mu.unlock();
      }
      if (idle) {
        reaped.push_back(std::move(it->second));
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }
  const size_t n = reaped.size();
  live_.fetch_sub(n, std::memory_order_relaxed);
  m_.reaped->Inc(n);
  // Reaped sessions tear down here, never under the manager lock.
  OMQE_CHECK(CountedMutex::HeldByThisThread() == 0);
  reaped.clear();
  return n;
}

StatusOr<LinkOverlay::Stats> SessionManager::OverlayStats(uint64_t sid) const {
  std::shared_ptr<Session> session = Lookup(sid);
  if (session == nullptr) return Status::NotFound("unknown session");
  std::lock_guard<std::mutex> lock(session->mu);
  if (session->partial == nullptr) {
    return Status::InvalidArgument("complete sessions have no link overlay");
  }
  return session->partial->overlay_stats();
}

size_t SessionManager::live_sessions() const {
  return static_cast<size_t>(live_.load(std::memory_order_relaxed));
}

}  // namespace omqe::server
