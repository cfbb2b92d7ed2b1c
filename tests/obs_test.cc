// Observability layer tests: the lock-free metrics registry (base/metrics.h)
// and the per-thread trace rings (base/trace.h).
//
// The load-bearing assertions are the concurrency ones: recording a
// counter/histogram while another thread renders, and recording spans while
// another thread dumps, must be race-free (the tsan CI job runs this suite)
// — and the record paths must acquire ZERO mutexes, pinned by snapshotting
// CountedMutex's process-wide acquisition counter around the loop (FETCH
// records once per answer, so a lock here would be a lock per answer).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "base/counted_mutex.h"
#include "base/metrics.h"
#include "base/timer.h"
#include "base/trace.h"

namespace omqe {
namespace {

// ---------------------------------------------------------------------------
// Histogram bucket geometry: bucket 0 is exactly 0; bucket b >= 1 holds
// [2^(b-1), 2^b - 1]; the top bucket absorbs everything up to UINT64_MAX.

TEST(HistogramTest, BucketBoundaries) {
  using H = metrics::Histogram;
  EXPECT_EQ(H::BucketOf(0), 0u);
  EXPECT_EQ(H::BucketOf(1), 1u);
  EXPECT_EQ(H::BucketOf(2), 2u);
  EXPECT_EQ(H::BucketOf(3), 2u);
  EXPECT_EQ(H::BucketOf(4), 3u);
  for (size_t k = 1; k < 64; ++k) {
    const uint64_t pow = uint64_t{1} << k;
    EXPECT_EQ(H::BucketOf(pow - 1), k) << "2^" << k << " - 1";
    EXPECT_EQ(H::BucketOf(pow), k + 1) << "2^" << k;
  }
  EXPECT_EQ(H::BucketOf(std::numeric_limits<uint64_t>::max()), 64u);

  EXPECT_EQ(H::BucketUpper(0), 0u);
  EXPECT_EQ(H::BucketUpper(1), 1u);
  EXPECT_EQ(H::BucketUpper(2), 3u);
  EXPECT_EQ(H::BucketUpper(63), (uint64_t{1} << 63) - 1);
  EXPECT_EQ(H::BucketUpper(64), std::numeric_limits<uint64_t>::max());
  // Every value lands in the bucket whose upper bound covers it.
  for (uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{7}, uint64_t{8},
                     uint64_t{1000}, std::numeric_limits<uint64_t>::max()}) {
    EXPECT_LE(v, H::BucketUpper(H::BucketOf(v)));
    if (H::BucketOf(v) > 0) {
      EXPECT_GT(v, H::BucketUpper(H::BucketOf(v) - 1));
    }
  }
}

TEST(HistogramTest, RecordSnapshotQuantiles) {
  metrics::Histogram h;
  // 90 values of 10 (bucket 4, upper 15), 9 of 100 (bucket 7, upper 127),
  // 1 of 1000 (bucket 10, upper 1023).
  for (int i = 0; i < 90; ++i) h.Record(10);
  for (int i = 0; i < 9; ++i) h.Record(100);
  h.Record(1000);

  metrics::Histogram::Snapshot s = h.TakeSnapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.sum, 90u * 10 + 9u * 100 + 1000u);
  EXPECT_EQ(s.max, 1000u);
  EXPECT_EQ(s.buckets[4], 90u);
  EXPECT_EQ(s.buckets[7], 9u);
  EXPECT_EQ(s.buckets[10], 1u);

  // Quantiles report the holding bucket's upper bound, clamped to max.
  EXPECT_EQ(s.Quantile(0.5), 15u);
  EXPECT_EQ(s.Quantile(0.99), 127u);
  EXPECT_EQ(s.Quantile(1.0), 1000u);  // clamped to the exact max
  EXPECT_EQ(metrics::Histogram::Snapshot{}.Quantile(0.5), 0u);
}

TEST(HistogramTest, MaxIsExactAcrossMagnitudes) {
  metrics::Histogram h;
  h.Record(0);
  h.Record(std::numeric_limits<uint64_t>::max());
  h.Record(12345);
  metrics::Histogram::Snapshot s = h.TakeSnapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.max, std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[64], 1u);
  EXPECT_EQ(s.Quantile(0.999), std::numeric_limits<uint64_t>::max());
}

// ---------------------------------------------------------------------------
// Stripe merging: increments spread across many threads (each thread gets
// its own stripe assignment) must sum exactly.

TEST(MetricsTest, CounterStripesMergeExactly) {
  metrics::Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

TEST(MetricsTest, HistogramStripesMergeExactly) {
  metrics::Histogram h;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (uint64_t i = 0; i < kPerThread; ++i)
        h.Record(static_cast<uint64_t>(t) + 1);
    });
  }
  for (auto& t : threads) t.join();
  metrics::Histogram::Snapshot s = h.TakeSnapshot();
  EXPECT_EQ(s.count, kThreads * kPerThread);
  uint64_t expected_sum = 0;
  for (int t = 0; t < kThreads; ++t)
    expected_sum += (static_cast<uint64_t>(t) + 1) * kPerThread;
  EXPECT_EQ(s.sum, expected_sum);
  EXPECT_EQ(s.max, static_cast<uint64_t>(kThreads));
}

// ---------------------------------------------------------------------------
// Registry interning, gauges, renderers.

TEST(MetricsTest, RegistryInternsByName) {
  metrics::Registry reg;
  metrics::Counter* a = reg.GetCounter("omqe_test_total");
  metrics::Counter* b = reg.GetCounter("omqe_test_total");
  EXPECT_EQ(a, b);
  EXPECT_NE(reg.GetCounter("omqe_other_total"), a);
}

TEST(MetricsTest, GaugeCallbackIsViewOverSource) {
  metrics::Registry reg;
  metrics::Gauge* g = reg.GetGauge("omqe_live");
  std::atomic<int64_t> source{7};
  g->SetCallback([&source] { return source.load(); });
  EXPECT_EQ(g->Value(), 7);
  source.store(42);
  EXPECT_EQ(g->Value(), 42);  // cannot drift: reads the source every time
  g->SetCallback(nullptr);
  g->Set(3);
  EXPECT_EQ(g->Value(), 3);
}

TEST(MetricsTest, RenderPrometheusShape) {
  metrics::Registry reg;
  reg.GetCounter("omqe_requests_total")->Inc(5);
  reg.GetGauge("omqe_live")->Set(2);
  metrics::Histogram* h = reg.GetHistogram("omqe_latency_ns{verb=\"FETCH\"}");
  h->Record(100);
  std::string text = reg.RenderPrometheus();
  EXPECT_NE(text.find("# TYPE omqe_requests_total counter"), std::string::npos);
  EXPECT_NE(text.find("omqe_requests_total 5"), std::string::npos);
  EXPECT_NE(text.find("omqe_live 2"), std::string::npos);
  // Summary suffixes land BEFORE the label brace.
  EXPECT_NE(text.find("omqe_latency_ns_count{verb=\"FETCH\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("omqe_latency_ns{verb=\"FETCH\",quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_EQ(text.find("omqe_latency_ns{verb=\"FETCH\"}_count"),
            std::string::npos);
}

TEST(MetricsTest, RenderBenchJsonIsValidAndEscaped) {
  metrics::Registry reg;
  reg.GetCounter("omqe_requests_total")->Inc(3);
  reg.GetHistogram("omqe_latency_ns{verb=\"FETCH\"}")->Record(64);
  std::string json = reg.RenderBenchJson();
  EXPECT_NE(json.find("\"bench\": \"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"omqe_requests_total\": 3"), std::string::npos);
  // The embedded quotes of the label suffix must be escaped, or the
  // document is not JSON at all.
  EXPECT_NE(json.find("omqe_latency_ns{verb=\\\"FETCH\\\"}"),
            std::string::npos);
  EXPECT_EQ(json.find("{verb=\"FETCH\"}"), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// The zero-mutex pin: recording counters and histogram samples — the exact
// operations FETCH performs per answer and Get per call — must not
// acquire a single CountedMutex. Registration (GetCounter etc.) and the
// thread's stripe assignment happen in the warm-up, outside the window,
// mirroring how the server caches handles at construction.

TEST(MetricsTest, RecordPathAcquiresZeroMutexes) {
  metrics::Registry reg;
  metrics::Counter* c = reg.GetCounter("omqe_hot_total");
  metrics::Histogram* h = reg.GetHistogram("omqe_hot_ns");
  c->Inc();       // warm-up: stripe index assignment
  h->Record(1);

  const uint64_t before = CountedMutex::TotalAcquisitions();
  for (int i = 0; i < 100000; ++i) {
    c->Inc();
    h->Record(static_cast<uint64_t>(i));
  }
  EXPECT_EQ(CountedMutex::TotalAcquisitions(), before)
      << "metric recording took a mutex on the hot path";
}

TEST(TraceTest, RecordPathAcquiresZeroMutexes) {
  trace::Enable();
  trace::Clear();
  { trace::ScopedSpan warmup("obs.warmup"); }  // ring adoption (takes a lock)

  const uint64_t before = CountedMutex::TotalAcquisitions();
  for (int i = 0; i < 10000; ++i) {
    trace::ScopedSpan span("obs.hot", static_cast<uint64_t>(i));
  }
  EXPECT_EQ(CountedMutex::TotalAcquisitions(), before)
      << "span recording took a mutex on the hot path";
  trace::Disable();
}

// Record-while-render: renderers walk every stripe while writers keep
// ticking. The assertion is absence of crashes/races (tsan) plus a sane
// monotone read.
TEST(MetricsTest, ConcurrentRecordWhileRender) {
  metrics::Registry reg;
  metrics::Counter* c = reg.GetCounter("omqe_spin_total");
  metrics::Histogram* h = reg.GetHistogram("omqe_spin_ns");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      // A guaranteed batch first (thread startup can lose the race against
      // the render loop entirely), then spin until told to stop.
      for (int i = 0; i < 1000; ++i) {
        c->Inc();
        h->Record(17);
      }
      while (!stop.load(std::memory_order_relaxed)) {
        c->Inc();
        h->Record(17);
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    std::string text = reg.RenderPrometheus();
    EXPECT_NE(text.find("omqe_spin_total"), std::string::npos);
    std::string json = reg.RenderBenchJson();
    EXPECT_NE(json.find("omqe_spin_ns"), std::string::npos);
  }
  stop.store(true);
  for (auto& w : writers) w.join();
  metrics::Histogram::Snapshot s = h->TakeSnapshot();
  EXPECT_EQ(s.count, s.buckets[5]);  // every sample was 17 -> bucket 5
  EXPECT_GT(c->Value(), 0u);
}

// ---------------------------------------------------------------------------
// Trace rings.

TEST(TraceTest, DisarmedRecordsNothing) {
  trace::Disable();
  trace::Clear();
  { trace::ScopedSpan span("obs.disarmed"); }
  trace::RecordSpan("obs.disarmed_direct", NowNanos(), 1, 0);
  EXPECT_TRUE(trace::Dump().empty());
}

TEST(TraceTest, SpansCarryNameArgAndOrder) {
  trace::Enable();
  trace::Clear();
  {
    trace::ScopedSpan a("obs.first", 11);
    (void)a;
  }
  {
    trace::ScopedSpan b("obs.second");
    b.set_arg(22);
  }
  std::vector<trace::Span> spans = trace::Dump();
  trace::Disable();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_STREQ(spans[0].name, "obs.first");
  EXPECT_EQ(spans[0].arg, 11u);
  EXPECT_STREQ(spans[1].name, "obs.second");
  EXPECT_EQ(spans[1].arg, 22u);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);  // sorted by start
  std::string line = trace::FormatSpan(spans[0]);
  EXPECT_NE(line.find("obs.first"), std::string::npos);
  EXPECT_NE(line.find("arg=11"), std::string::npos);
}

TEST(TraceTest, RingWrapsKeepingNewestSpans) {
  trace::Enable();
  trace::Clear();
  const size_t total = trace::kRingCapacity + 100;
  for (size_t i = 0; i < total; ++i) {
    trace::RecordSpan("obs.wrap", static_cast<int64_t>(i), 1, i);
  }
  std::vector<trace::Span> spans = trace::DumpCurrentThread(0);
  trace::Disable();
  ASSERT_EQ(spans.size(), trace::kRingCapacity);
  // The retained window is the newest kRingCapacity spans, oldest first.
  EXPECT_EQ(spans.front().arg, total - trace::kRingCapacity);
  EXPECT_EQ(spans.back().arg, total - 1);
  for (size_t i = 1; i < spans.size(); ++i)
    EXPECT_EQ(spans[i].arg, spans[i - 1].arg + 1);
}

TEST(TraceTest, DumpCurrentThreadFiltersBySince) {
  trace::Enable();
  trace::Clear();
  trace::RecordSpan("obs.old", 100, 1, 1);
  trace::RecordSpan("obs.new", 200, 1, 2);
  std::vector<trace::Span> spans = trace::DumpCurrentThread(150);
  trace::Disable();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "obs.new");
}

// Record-while-dump: writers hammer their rings while a reader dumps in a
// loop. Seqlock slots make this safe (tsan validates); torn slots are
// skipped, never invented — every span the dump returns must be one a
// writer actually wrote.
TEST(TraceTest, ConcurrentRecordWhileDump) {
  trace::Enable();
  trace::Clear();
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        trace::RecordSpan("obs.race", static_cast<int64_t>(i + 1), 7,
                          static_cast<uint64_t>(t) * 1'000'000 + i);
        ++i;
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    std::vector<trace::Span> spans = trace::Dump();
    for (const trace::Span& s : spans) {
      EXPECT_STREQ(s.name, "obs.race");
      EXPECT_EQ(s.dur_ns, 7);
      EXPECT_GE(s.start_ns, 1);
    }
  }
  stop.store(true);
  for (auto& w : writers) w.join();
  trace::Disable();
  trace::Clear();
}

// Rings outlive threads and are adopted by later ones: spans recorded by a
// dead thread stay dumpable, and thread churn does not grow the ring list
// without bound (free-list reuse).
TEST(TraceTest, RingsSurviveThreadExitAndAreReused) {
  trace::Enable();
  trace::Clear();
  std::thread([&] { trace::RecordSpan("obs.dead_thread", 1, 1, 99); }).join();
  std::vector<trace::Span> spans = trace::Dump();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "obs.dead_thread");
  const uint32_t first_tid = spans[0].tid;

  // A successor thread adopts the parked ring: same tid, shared window.
  std::thread([&] { trace::RecordSpan("obs.next_thread", 2, 1, 100); }).join();
  spans = trace::Dump();
  trace::Disable();
  trace::Clear();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].tid, first_tid);
}

}  // namespace
}  // namespace omqe
