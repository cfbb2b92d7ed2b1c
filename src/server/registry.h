// QueryRegistry: named, refcounted prepared queries with a prepare/evict
// lifecycle — the server-side owner of PreparedOMQ artifacts.
//
// One registry serves one (ontology, database) environment. Prepare() runs
// the estimator pre-pass (chase/estimate.h) and rejects ontologies whose
// chase-size bound blows the admission budget BEFORE paying for the chase,
// then runs the full preprocessing phase and publishes the artifact under
// its name. Get() hands out shared_ptr references; Evict() removes the name
// but never invalidates live references — sessions opened before the evict
// keep the artifact alive through their refcount and drain normally (the
// same shared-ownership contract core/prepared.h gives sessions).
//
// Locking: the name table is one unordered_map guarded by mu_. Get() and
// size() take mu_ for the lookup and copy out the shared_ptr they need; a
// FETCH pays that one lookup per batch, never per answer. Writers (the
// Prepare publish, Evict) move the displaced shared_ptr out under mu_ and
// drop it only after every registry lock is released, so a PreparedOMQ
// teardown (possibly the last reference) never runs under a lock.
//
// One caveat remains on the write side: the preprocessing phase reads AND
// writes the environment's shared unfrozen Vocabulary (arity lookups on
// every row, fresh relations during normalization), so callers that let
// other threads read the vocabulary concurrently — e.g. to render rows —
// must hold their own exclusive vocabulary lock around Prepare
// (OmqeServer::DoPrepare does). Prepare additionally serializes on a
// dedicated mutex so two prepares never interleave.
#ifndef OMQE_SERVER_REGISTRY_H_
#define OMQE_SERVER_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "base/cancel.h"
#include "base/counted_mutex.h"
#include "base/metrics.h"
#include "chase/estimate.h"
#include "core/prepared.h"

namespace omqe::server {

struct RegistryOptions {
  PrepareOptions prepare;
  /// Admission control: reject a PREPARE when the chase-size estimator's
  /// bound does not converge under this many facts. 0 disables the pre-pass.
  size_t max_estimated_chase_facts = 1u << 22;
  /// Per-PREPARE deadline in milliseconds (0 = none). The preprocessing
  /// phase runs under a CancelToken with this deadline; on expiry the chase
  /// aborts cooperatively, Prepare returns DeadlineExceeded, and the name is
  /// left exactly as it was (a previously published artifact survives, a
  /// new name stays absent and re-preparable).
  uint64_t prepare_deadline_ms = 0;
  /// Metric registry the registry's counters live in (null = the registry
  /// owns a private one). The counters ARE the bookkeeping; METRICS renders
  /// them.
  metrics::Registry* metrics = nullptr;
};

class QueryRegistry {
 public:
  /// The environment must outlive the registry. The database is the input
  /// instance every registered query is prepared against.
  QueryRegistry(const Ontology* onto, const Database* db,
                RegistryOptions options = {});
  ~QueryRegistry();

  /// Estimator pre-pass + full preprocessing; publishes under `name`.
  /// Re-preparing an existing name replaces the artifact (old sessions keep
  /// the old one alive until they close). Fails fast with Cancelled once
  /// BeginDrain() has been called — including for a call that was already
  /// queued on the prepare mutex when drain started.
  StatusOr<std::shared_ptr<const PreparedOMQ>> Prepare(const std::string& name,
                                                       const CQ& query);

  /// The artifact for `name`, or nullptr when absent. One mu_ lookup.
  std::shared_ptr<const PreparedOMQ> Get(const std::string& name) const;

  /// Removes `name`. Live sessions keep their reference. False if absent.
  bool Evict(const std::string& name);

  size_t size() const;

  /// Requests cooperative cancellation of the Prepare currently running (if
  /// any): its CancelToken is flagged and it returns Cancelled at the next
  /// chase checkpoint. NOT sticky — the next Prepare runs normally (deadline
  /// retry paths depend on that). Safe from any thread; a no-op when idle.
  void CancelInFlight();

  /// Server drain: sticky. Cancels the in-flight Prepare AND makes every
  /// subsequent (or queued-on-the-mutex) Prepare fail fast with Cancelled —
  /// closing the window where a PREPARE that had not yet published its
  /// token would run a full chase during shutdown.
  void BeginDrain();

  /// Replaces the per-PREPARE deadline at runtime (0 = none). Takes effect
  /// for the next Prepare call; the in-flight one (if any) keeps its token.
  void set_prepare_deadline_ms(uint64_t ms);

 private:
  /// The serialized prepare body. A re-PREPARE of a held name moves the
  /// artifact it replaces into *displaced; Prepare() drops it after
  /// prepare_mu_ and mu_ are both released.
  StatusOr<std::shared_ptr<const PreparedOMQ>> PrepareLocked(
      const std::string& name, const CQ& query,
      std::shared_ptr<const PreparedOMQ>* displaced);

  const Ontology* onto_;
  const Database* db_;
  RegistryOptions options_;
  /// The admission estimate depends only on (db, ontology, options), all
  /// fixed for the registry's lifetime — computed once in the constructor,
  /// not on every PREPARE (which runs under the server's exclusive
  /// vocabulary lock and must stay short).
  ChaseEstimate admission_estimate_;

  /// CountedMutex so teardown sites can assert no lock is held.
  mutable CountedMutex mu_;
  CountedMutex prepare_mu_;  // serializes the (vocab-mutating) prepare phase
  std::unordered_map<std::string, std::shared_ptr<const PreparedOMQ>>
      queries_;  // guarded by mu_
  std::atomic<bool> draining_{false};
  /// Backing store when no external metric registry was injected.
  std::unique_ptr<metrics::Registry> owned_metrics_;
  metrics::Registry* metrics_ = nullptr;
  /// The registry's bookkeeping lives directly in metric counters. The
  /// hot-path pair (hits/misses on Get) are lock-free striped counters.
  struct Counters {
    metrics::Counter* prepares;
    metrics::Counter* prepare_failures;
    metrics::Counter* rejected_by_estimate;
    metrics::Counter* evictions;
    metrics::Counter* hits;
    metrics::Counter* misses;
    metrics::Counter* deadline_exceeded;
    metrics::Counter* cancelled;
    metrics::Counter* chase_rounds;
    metrics::Counter* chase_candidates;
    metrics::Counter* chase_applied;
    metrics::Counter* chase_nulls_invented;
    metrics::Counter* chase_match_nanos;
    metrics::Counter* chase_apply_nanos;
    metrics::Gauge* size;  ///< callback view over size()
  };
  Counters m_;
  /// Token of the Prepare currently holding prepare_mu_ (guarded by mu_, so
  /// CancelInFlight never races the token's stack lifetime: the pointer is
  /// published under mu_ before the chase starts and cleared under mu_
  /// before Prepare's frame unwinds).
  CancelToken* in_flight_ = nullptr;
};

}  // namespace omqe::server

#endif  // OMQE_SERVER_REGISTRY_H_
