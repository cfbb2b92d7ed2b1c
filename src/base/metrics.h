// Lock-free metrics: named counters, gauges, and log2-bucketed histograms
// behind a registry, recorded with relaxed atomics and per-thread striping so
// the serving hot path (FETCH/Get) can tick counters and record latencies
// without ever touching a mutex — pinned by obs_test, which snapshots
// CountedMutex's process-wide acquisition counter across a record loop.
//
// Shape:
//   - Counter: monotonic u64. Inc() is one relaxed fetch_add on the calling
//     thread's stripe; Value() sums the stripes (approximate only in the
//     sense that it is a moment-in-time sum, like any concurrent counter).
//   - Gauge: a settable i64, or a callback — a gauge whose truth lives
//     elsewhere (live session count, fault injector totals) registers a
//     provider instead of mirroring the value, so the metric CANNOT drift
//     from its source. Callbacks run only on the render path.
//   - Histogram: 65 log2 buckets (bucket 0 holds exactly the value 0;
//     bucket b >= 1 holds [2^(b-1), 2^b - 1], i.e. b = bit_width(v)), plus
//     an exact striped sum and an exact CAS-maintained max. Record() is
//     bucket + sum + max on the thread's stripe, all relaxed. Quantiles
//     come from the bucket CDF: the reported p50/p99/p999 is the upper
//     bound of the bucket holding that rank, clamped to the exact max —
//     within a factor of 2 of the true order statistic, which is the right
//     trade for a hot path that cannot afford a reservoir.
//
// The registry hands out stable pointers: Get*() interns by name under a
// CountedMutex (registration is startup-time; obs_test's hot-path pin is on
// record, not registration) and the handle stays valid for the registry's
// lifetime. Renderers emit a Prometheus-style text exposition and the
// BENCH-compatible JSON every harness in this repo already speaks. A name
// may carry a Prometheus label suffix ("omqe_request_latency_ns{verb=\"FETCH\"}");
// the renderer splits it so summary suffixes land before the brace
// (omqe_request_latency_ns_count{verb="FETCH"}).
//
// Registry::Global() is the process-wide instance; components that need
// isolation (one server per test, many per process) construct their own —
// OmqeServer owns one registry shared by its registry/session-manager/wire
// layers, which is what METRICS renders.
#ifndef OMQE_BASE_METRICS_H_
#define OMQE_BASE_METRICS_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/counted_mutex.h"

namespace omqe::metrics {

/// Stripe count for every striped metric (power of two). 16 stripes keep a
/// contended counter's cache-line ping-pong off the hot path while a full
/// histogram stays ~9KB.
inline constexpr size_t kStripes = 16;

/// The calling thread's stripe. Thread-local, assigned round-robin on first
/// use — one relaxed fetch_add per thread lifetime, no lock ever.
inline size_t StripeIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t assigned =
      next.fetch_add(1, std::memory_order_relaxed);
  return assigned & (kStripes - 1);
}

class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Inc(uint64_t delta = 1) {
    cells_[StripeIndex()].v.fetch_add(delta, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t sum = 0;
    for (const Cell& c : cells_) sum += c.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  Cell cells_[kStripes];
};

class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }

  /// Binds the gauge to its source of truth; Value() calls the provider
  /// (render path only — providers may take locks). Pass nullptr to unbind,
  /// which the owner of the referenced state must do before that state dies.
  void SetCallback(std::function<int64_t()> provider);

  int64_t Value() const;

 private:
  std::atomic<int64_t> value_{0};
  /// Guarded by cb_mu_: SetCallback vs a concurrent render.
  mutable CountedMutex cb_mu_;
  std::function<int64_t()> provider_;
};

class Histogram {
 public:
  /// Bucket 0 is the exact value 0; buckets 1..64 are [2^(b-1), 2^b - 1].
  static constexpr size_t kBuckets = 65;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  static size_t BucketOf(uint64_t v) {
    return static_cast<size_t>(std::bit_width(v));  // bit_width(0) == 0
  }
  /// Inclusive upper bound of bucket `b` (what a quantile reports).
  static uint64_t BucketUpper(size_t b) {
    if (b == 0) return 0;
    if (b >= 64) return UINT64_MAX;
    return (uint64_t{1} << b) - 1;
  }

  void Record(uint64_t v) {
    Stripe& s = stripes_[StripeIndex()];
    s.buckets[BucketOf(v)].fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
    uint64_t cur = s.max.load(std::memory_order_relaxed);
    while (v > cur && !s.max.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }

  /// A moment-in-time merge of the stripes.
  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t max = 0;
    uint64_t buckets[kBuckets] = {};

    /// Upper bound of the bucket holding rank ceil(q * count), clamped to
    /// the exact max. 0 when empty.
    uint64_t Quantile(double q) const;
  };
  Snapshot TakeSnapshot() const;

 private:
  struct alignas(64) Stripe {
    std::atomic<uint64_t> buckets[kBuckets] = {};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> max{0};
  };
  Stripe stripes_[kStripes];
};

/// Named metric registry. Get*() interns by name (creating on first use) and
/// returns a pointer stable for the registry's lifetime; a name belongs to
/// exactly one metric kind (a kind mismatch aborts — it is a programming
/// error, never data-dependent). Render order is registration order.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry (leaked, never destroyed).
  static Registry& Global();

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  /// Prometheus-style text exposition: counters as `name value`, gauges
  /// likewise, histograms as summaries (`name{quantile="0.5"} v`, `_count`,
  /// `_sum`, `_max`), each preceded by a `# TYPE` line. Label suffixes in
  /// the registered name are folded into the output labels.
  std::string RenderPrometheus() const;

  /// The BENCH baseline shape ({"bench": "metrics", "smoke": false,
  /// "rows": [...]}): one "counters" row, one "gauges" row, then one
  /// "histogram" row per histogram with count/sum/p50/p99/p999/max.
  std::string RenderBenchJson() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* FindOrCreate(std::string_view name, Kind kind);

  /// Registration and render only — never on a record path (handles are
  /// cached by the instrumented component at construction).
  mutable CountedMutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;
};

}  // namespace omqe::metrics

#endif  // OMQE_BASE_METRICS_H_
