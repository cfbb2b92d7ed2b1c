#include "server/registry.h"

#include <utility>

#include "base/fault.h"
#include "base/str.h"
#include "base/trace.h"
#include "chase/chase.h"
#include "core/omq.h"

namespace omqe::server {

QueryRegistry::QueryRegistry(const Ontology* onto, const Database* db,
                             RegistryOptions options)
    : onto_(onto), db_(db), options_(std::move(options)) {
  OMQE_CHECK(onto_ != nullptr && db_ != nullptr);
  if (options_.metrics == nullptr) {
    owned_metrics_ = std::make_unique<metrics::Registry>();
    options_.metrics = owned_metrics_.get();
  }
  metrics_ = options_.metrics;
  m_.prepares = metrics_->GetCounter("omqe_prepares_total");
  m_.prepare_failures = metrics_->GetCounter("omqe_prepare_failures_total");
  m_.rejected_by_estimate =
      metrics_->GetCounter("omqe_prepare_rejected_by_estimate_total");
  m_.evictions = metrics_->GetCounter("omqe_evictions_total");
  m_.hits = metrics_->GetCounter("omqe_registry_hits_total");
  m_.misses = metrics_->GetCounter("omqe_registry_misses_total");
  m_.deadline_exceeded =
      metrics_->GetCounter("omqe_prepare_deadline_exceeded_total");
  m_.cancelled = metrics_->GetCounter("omqe_prepare_cancelled_total");
  m_.chase_rounds = metrics_->GetCounter("omqe_chase_rounds_total");
  m_.chase_candidates = metrics_->GetCounter("omqe_chase_candidates_total");
  m_.chase_applied = metrics_->GetCounter("omqe_chase_applied_total");
  m_.chase_nulls_invented =
      metrics_->GetCounter("omqe_chase_nulls_invented_total");
  m_.chase_match_nanos = metrics_->GetCounter("omqe_chase_match_nanos_total");
  m_.chase_apply_nanos = metrics_->GetCounter("omqe_chase_apply_nanos_total");
  m_.size = metrics_->GetGauge("omqe_registry_size");
  m_.size->SetCallback(
      [this]() -> int64_t { return static_cast<int64_t>(size()); });
  if (options_.max_estimated_chase_facts > 0) {
    // Admission control, computed once: bound the chase at the DEEPEST cap
    // the query-directed chase could adaptively saturate to (max_depth,
    // not a query-derived minimum — the adaptive loop keeps raising the
    // cap while the database part grows, so an ontology tame at a shallow
    // depth can still explode on a later iteration). A bound that does not
    // converge under the admission budget rejects every PREPARE — exactly
    // the hostile shape (fuzzer seed 2208) where running the chase would
    // grind toward the global fact budget.
    ChaseEstimateOptions eopts;
    eopts.null_depth = options_.prepare.chase.max_depth;
    eopts.budget = options_.max_estimated_chase_facts;
    admission_estimate_ = EstimateChaseSize(*db_, *onto_, eopts);
  }
}

QueryRegistry::~QueryRegistry() {
  // The gauge callback captures `this`; unbind it so a metric registry that
  // outlives us can still render safely.
  m_.size->SetCallback(nullptr);
}

StatusOr<std::shared_ptr<const PreparedOMQ>> QueryRegistry::Prepare(
    const std::string& name, const CQ& query) {
  std::shared_ptr<const PreparedOMQ> displaced;
  auto result = PrepareLocked(name, query, &displaced);
  // A re-PREPARE may have displaced the last reference to the old artifact;
  // its teardown runs here, with every lock dropped, so it never stalls
  // readers or writers.
  OMQE_CHECK(CountedMutex::HeldByThisThread() == 0);
  displaced.reset();
  return result;
}

StatusOr<std::shared_ptr<const PreparedOMQ>> QueryRegistry::PrepareLocked(
    const std::string& name, const CQ& query,
    std::shared_ptr<const PreparedOMQ>* displaced) {
  std::lock_guard<CountedMutex> prepare_lock(prepare_mu_);
  // Bugfix (shutdown/PREPARE race): a call that was parked on prepare_mu_
  // when BeginDrain() fired has no published token for CancelInFlight to
  // flag — without this re-check it would run a full chase during drain.
  if (draining_.load(std::memory_order_acquire)) {
    m_.prepare_failures->Inc();
    m_.cancelled->Inc();
    return Status::Cancelled("server is draining");
  }
  if (FaultFires(kFaultRegistryPrepare)) {
    m_.prepare_failures->Inc();
    return Status::Internal("injected fault at registry.prepare");
  }
  if (options_.max_estimated_chase_facts > 0 &&
      admission_estimate_.exceeds_budget) {
    m_.prepare_failures->Inc();
    m_.rejected_by_estimate->Inc();
    return Status::ResourceExhausted(
        "chase-size estimate exceeds the admission budget (bound " +
        std::to_string(admission_estimate_.fact_bound) + ", budget " +
        std::to_string(options_.max_estimated_chase_facts) + ")");
  }
  // Arm a per-call token: the deadline (if configured) plus the handle
  // CancelInFlight flags on shutdown. Published under mu_ BEFORE the chase
  // starts and cleared under mu_ before this frame unwinds, so a concurrent
  // CancelInFlight can never touch a dead stack slot.
  uint64_t deadline_ms;
  {
    std::lock_guard<CountedMutex> lock(mu_);
    deadline_ms = options_.prepare_deadline_ms;
  }
  CancelToken token(deadline_ms > 0
                        ? Deadline::AfterMillis(static_cast<int64_t>(deadline_ms))
                        : Deadline::Never());
  {
    std::lock_guard<CountedMutex> lock(mu_);
    in_flight_ = &token;
  }
  // Drain may have started between the first re-check and the token
  // publication; make the sticky flag authoritative once the token is
  // visible so the chase never starts doomed.
  if (draining_.load(std::memory_order_acquire)) token.Cancel();
  PrepareOptions popts = options_.prepare;
  popts.chase.cancel = &token;
  trace::ScopedSpan prepare_span("registry.prepare");
  auto prepared =
      PreparedOMQ::Prepare(MakeOMQ(*onto_, query), *db_, popts);
  {
    std::lock_guard<CountedMutex> lock(mu_);
    in_flight_ = nullptr;
    if (!prepared.ok()) {
      m_.prepare_failures->Inc();
      if (prepared.status().code() == StatusCode::kDeadlineExceeded) {
        m_.deadline_exceeded->Inc();
      } else if (prepared.status().code() == StatusCode::kCancelled) {
        m_.cancelled->Inc();
      }
      // A failed prepare publishes nothing: `name` keeps whatever artifact
      // it had (possibly none) and stays re-preparable.
      return prepared.status();
    }
    m_.prepares->Inc();
    // Fold the artifact's chase counters (its final saturation run) into
    // the registry-lifetime omqe_chase_*_total metrics.
    const ChaseStats& cs = prepared.value()->chase().stats;
    prepare_span.set_arg(prepared.value()->chase().db.TotalFacts());
    m_.chase_rounds->Inc(cs.rounds);
    m_.chase_candidates->Inc(cs.candidates);
    m_.chase_applied->Inc(cs.applied);
    m_.chase_nulls_invented->Inc(cs.nulls_invented);
    m_.chase_match_nanos->Inc(cs.match_nanos);
    m_.chase_apply_nanos->Inc(cs.apply_nanos);
    std::shared_ptr<const PreparedOMQ>& slot = queries_[name];
    *displaced = std::move(slot);
    slot = prepared.value();
  }
  return std::move(prepared).value();
}

void QueryRegistry::CancelInFlight() {
  std::lock_guard<CountedMutex> lock(mu_);
  if (in_flight_ != nullptr) in_flight_->Cancel();
}

void QueryRegistry::BeginDrain() {
  draining_.store(true, std::memory_order_release);
  CancelInFlight();
}

void QueryRegistry::set_prepare_deadline_ms(uint64_t ms) {
  std::lock_guard<CountedMutex> lock(mu_);
  options_.prepare_deadline_ms = ms;
}

std::shared_ptr<const PreparedOMQ> QueryRegistry::Get(
    const std::string& name) const {
  std::shared_ptr<const PreparedOMQ> found;
  {
    std::lock_guard<CountedMutex> lock(mu_);
    auto it = queries_.find(name);
    if (it != queries_.end()) found = it->second;
  }
  (found != nullptr ? m_.hits : m_.misses)->Inc();
  return found;
}

bool QueryRegistry::Evict(const std::string& name) {
  std::shared_ptr<const PreparedOMQ> displaced;
  {
    std::lock_guard<CountedMutex> lock(mu_);
    auto it = queries_.find(name);
    if (it == queries_.end()) return false;
    displaced = std::move(it->second);
    queries_.erase(it);
    m_.evictions->Inc();
  }
  // Live sessions keep their own references; if none remain, the artifact
  // tears down here, outside the lock.
  OMQE_CHECK(CountedMutex::HeldByThisThread() == 0);
  displaced.reset();
  return true;
}

size_t QueryRegistry::size() const {
  std::lock_guard<CountedMutex> lock(mu_);
  return queries_.size();
}

}  // namespace omqe::server
