#include "server/session_manager.h"

#include <algorithm>

#include "base/fault.h"
#include "base/timer.h"
#include "base/trace.h"

namespace omqe::server {

SessionManager::SessionManager(SessionLimits limits,
                               metrics::Registry* metrics)
    : limits_(limits) {
  for (Shard& shard : shards_) {
    shard.table.store(new Table(kInitialCapacity), std::memory_order_relaxed);
  }
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
  // Owner contract: no reader thread outlives the manager. CloseAll retires
  // every live Box; with no pinned readers the sweep reclaims everything
  // pending (ours and anything else queued on the global domain).
  CloseAll();
  EpochDomain::Global().ReclaimSweep();
  for (Shard& shard : shards_) {
    delete shard.table.load(std::memory_order_relaxed);
  }
}

std::shared_ptr<SessionManager::Session> SessionManager::Lookup(
    uint64_t sid) const {
  // The FETCH hot path: no mutex, ever. Pin an epoch, probe the published
  // slot array, copy the shared_ptr out of the Box while pinned. All slot
  // and table accesses are seq_cst — the reader half of the handshake that
  // lets writers prove a retired Box/Table is unreachable (base/epoch.h).
  EpochGuard guard;
  const Shard& shard = shards_[ShardOf(sid)];
  const Table* table = shard.table.load(std::memory_order_seq_cst);
  size_t i = HashSid(sid) & table->mask;
  for (size_t probes = 0; probes <= table->mask;
       ++probes, i = (i + 1) & table->mask) {
    const uint64_t tag = table->slots[i].tag.load(std::memory_order_seq_cst);
    if (tag == 0) return nullptr;  // never-occupied slot: sid is absent
    if (tag != sid) continue;      // tombstone or neighbor: keep probing
    const Box* box = table->slots[i].box.load(std::memory_order_seq_cst);
    // A null or mismatched Box means the slot was closed (and possibly
    // recycled for a newer sid) between our tag and box loads; sids are
    // never reused, so the session is definitively gone.
    if (box == nullptr || box->sid != sid) return nullptr;
    return box->session;
  }
  return nullptr;
}

void SessionManager::InsertLocked(Shard& shard, uint64_t sid,
                                  std::shared_ptr<Session> s) {
  Table* table = shard.table.load(std::memory_order_relaxed);
  if ((shard.filled + 1) * 2 > table->capacity) {
    // Rehash: clears tombstones, doubles only if live occupancy demands it.
    size_t cap = table->capacity;
    if ((shard.live + 1) * 2 > cap) cap *= 2;
    Table* bigger = new Table(cap);
    for (size_t i = 0; i < table->capacity; ++i) {
      const uint64_t tag = table->slots[i].tag.load(std::memory_order_relaxed);
      if (tag == 0 || tag == kTombstone) continue;
      Box* box = table->slots[i].box.load(std::memory_order_relaxed);
      size_t j = HashSid(tag) & bigger->mask;
      while (bigger->slots[j].tag.load(std::memory_order_relaxed) != 0) {
        j = (j + 1) & bigger->mask;
      }
      // New table is unreachable until published: plain-order stores, but
      // box-before-tag so the publish exposes only complete slots.
      bigger->slots[j].box.store(box, std::memory_order_relaxed);
      bigger->slots[j].tag.store(tag, std::memory_order_relaxed);
    }
    shard.filled = shard.live;
    shard.table.store(bigger, std::memory_order_seq_cst);
    // Boxes moved over; only the outgrown slot array is retired.
    EpochDomain::Global().RetireDelete(table);
    table = bigger;
  }
  size_t i = HashSid(sid) & table->mask;
  for (;;) {
    const uint64_t tag = table->slots[i].tag.load(std::memory_order_relaxed);
    if (tag == 0 || tag == kTombstone) {
      if (tag == 0) ++shard.filled;
      // Box first, tag second (both seq_cst): a reader that observes the
      // sid tag is guaranteed to observe the Box behind it.
      table->slots[i].box.store(new Box{sid, std::move(s)},
                                std::memory_order_seq_cst);
      table->slots[i].tag.store(sid, std::memory_order_seq_cst);
      ++shard.live;
      return;
    }
    i = (i + 1) & table->mask;
  }
}

bool SessionManager::EraseLocked(Shard& shard, uint64_t sid) {
  Table* table = shard.table.load(std::memory_order_relaxed);
  size_t i = HashSid(sid) & table->mask;
  for (size_t probes = 0; probes <= table->mask;
       ++probes, i = (i + 1) & table->mask) {
    const uint64_t tag = table->slots[i].tag.load(std::memory_order_relaxed);
    if (tag == 0) return false;
    if (tag != sid) continue;
    Box* box = table->slots[i].box.load(std::memory_order_relaxed);
    // Unpublish (box first so a racing reader that still sees the sid tag
    // finds null and reports absent), then retire: the Box carries the
    // (possibly final) session reference into the epoch sweep, so session
    // teardown can only ever run outside every lock.
    table->slots[i].box.store(nullptr, std::memory_order_seq_cst);
    table->slots[i].tag.store(kTombstone, std::memory_order_seq_cst);
    EpochDomain::Global().RetireDelete(box);
    --shard.live;
    live_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }
  return false;
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
  Shard& shard = shards_[ShardOf(sid)];
  {
    std::lock_guard<CountedMutex> lock(shard.mu);
    InsertLocked(shard, sid, std::move(session));
  }
  m_.opened->Inc();
  // A growth rehash may have retired the old slot array; sweep with no
  // locks held.
  OMQE_CHECK(CountedMutex::HeldByThisThread() == 0);
  EpochDomain::Global().ReclaimSweep();
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
    std::lock_guard<SpinLock> lock(session->mu);
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
      // (the zero-mutex pin in server_test covers this armed path).
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
    std::lock_guard<SpinLock> lock(session->mu);
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
  Shard& shard = shards_[ShardOf(sid)];
  bool erased;
  {
    std::lock_guard<CountedMutex> lock(shard.mu);
    erased = EraseLocked(shard, sid);
  }
  if (!erased) return Status::NotFound("unknown session");
  m_.closed->Inc();
  // Bugfix (teardown under the manager lock): the erased session is not
  // destroyed here — its Box was retired. The sweep below (and any later
  // sweep) runs the destructor with zero locks held, so a heavy overlay
  // teardown can no longer stall concurrent Open/Lookup.
  OMQE_CHECK(CountedMutex::HeldByThisThread() == 0);
  EpochDomain::Global().ReclaimSweep();
  return Status::OK();
}

size_t SessionManager::CloseAll() {
  size_t n = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<CountedMutex> lock(shard.mu);
    Table* table = shard.table.load(std::memory_order_relaxed);
    if (shard.live == 0 && shard.filled == 0) continue;
    // Swap in a fresh empty table; retire the old array and every Box in
    // it. Readers mid-probe keep the old version alive through their pins.
    Table* empty = new Table(kInitialCapacity);
    shard.table.store(empty, std::memory_order_seq_cst);
    for (size_t i = 0; i < table->capacity; ++i) {
      const uint64_t tag = table->slots[i].tag.load(std::memory_order_relaxed);
      if (tag == 0 || tag == kTombstone) continue;
      Box* box = table->slots[i].box.load(std::memory_order_relaxed);
      EpochDomain::Global().RetireDelete(box);
      ++n;
    }
    EpochDomain::Global().RetireDelete(table);
    shard.live = 0;
    shard.filled = 0;
  }
  live_.fetch_sub(n, std::memory_order_acq_rel);
  m_.closed->Inc(n);
  OMQE_CHECK(CountedMutex::HeldByThisThread() == 0);
  EpochDomain::Global().ReclaimSweep();
  return n;
}

size_t SessionManager::ReapIdle() {
  if (limits_.idle_timeout_ms <= 0) return 0;
  const int64_t cutoff = NowNanos() - limits_.idle_timeout_ms * 1'000'000;
  size_t reaped = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<CountedMutex> lock(shard.mu);
    Table* table = shard.table.load(std::memory_order_relaxed);
    for (size_t i = 0; i < table->capacity; ++i) {
      const uint64_t tag = table->slots[i].tag.load(std::memory_order_relaxed);
      if (tag == 0 || tag == kTombstone) continue;
      Box* box = table->slots[i].box.load(std::memory_order_relaxed);
      Session& s = *box->session;
      // A session whose lock is held is mid-fetch/reset — actively in use
      // no matter what its start-of-fetch timestamp says — so skip it (the
      // try_lock is safe: cursor work never waits on shard locks).
      // Otherwise a stale timestamp can only delay a reap by one cycle,
      // and an in-flight fetch elsewhere keeps its shared_ptr, so erasing
      // here never frees live state.
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
        table->slots[i].box.store(nullptr, std::memory_order_seq_cst);
        table->slots[i].tag.store(kTombstone, std::memory_order_seq_cst);
        EpochDomain::Global().RetireDelete(box);
        --shard.live;
        live_.fetch_sub(1, std::memory_order_relaxed);
        ++reaped;
      }
    }
  }
  m_.reaped->Inc(reaped);
  // Reaped sessions tear down in the sweep, never under a shard lock.
  OMQE_CHECK(CountedMutex::HeldByThisThread() == 0);
  EpochDomain::Global().ReclaimSweep();
  return reaped;
}

StatusOr<LinkOverlay::Stats> SessionManager::OverlayStats(uint64_t sid) const {
  std::shared_ptr<Session> session = Lookup(sid);
  if (session == nullptr) return Status::NotFound("unknown session");
  std::lock_guard<SpinLock> lock(session->mu);
  if (session->partial == nullptr) {
    return Status::InvalidArgument("complete sessions have no link overlay");
  }
  return session->partial->overlay_stats();
}

size_t SessionManager::live_sessions() const {
  return static_cast<size_t>(live_.load(std::memory_order_relaxed));
}

}  // namespace omqe::server
