// Always-compiled, runtime-armed tracing: per-thread ring buffers of
// timestamped spans, dumpable on demand while recording continues.
//
// A span is (name, start_ns, dur_ns, arg, tid) — `name` must be a string
// literal (the ring stores the pointer, never copies). Recording when tracing
// is disarmed is a single relaxed atomic load; armed, it is two NowNanos()
// calls plus a seqlock-protected slot write in a thread-local ring — no mutex
// either way, so spans can wrap the FETCH hot path without adding a lock per
// answer.
//
// Dump() works concurrently with recording: each ring slot carries a seqlock
// (odd while a writer is mid-update), and readers retry slots whose sequence
// moved. This is what makes TRACE dump safe against live traffic and keeps
// TSan quiet (obs_test runs record-while-dump under the tsan CI job).
//
// Ring lifetime outlives threads: rings are allocated once, registered in a
// global list, and parked on a free list at thread exit for the next thread
// to adopt — connection churn in the thread-per-connection server reuses
// rings instead of leaking one per connection. Registration/adoption takes a
// CountedMutex once per thread lifetime (tests that count locks warm the
// thread up first).
#ifndef OMQE_BASE_TRACE_H_
#define OMQE_BASE_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "base/timer.h"

namespace omqe::trace {

struct Span {
  const char* name = nullptr;  // string literal
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  uint64_t arg = 0;  // span-specific payload (rows, facts, bytes, ...)
  uint32_t tid = 0;  // small per-ring id, stable for the ring's lifetime
};

/// Spans each ring retains; older spans are overwritten (wraparound).
inline constexpr size_t kRingCapacity = 1024;

/// Arm / disarm recording process-wide. Disarmed ScopedSpans cost one
/// relaxed load at construction and nothing at destruction.
void Enable();
void Disable();
bool Enabled();

/// Records a completed span into the calling thread's ring (no-op unless
/// armed when the span began).
void RecordSpan(const char* name, int64_t start_ns, int64_t dur_ns,
                uint64_t arg);

/// RAII span. `name` must outlive the trace layer (use literals). `arg` can
/// be set after construction (e.g. rows emitted, discovered mid-span).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t arg = 0)
      : name_(name), arg_(arg), armed_(Enabled()) {
    if (armed_) start_ns_ = NowNanos();
  }
  ~ScopedSpan() {
    if (armed_) RecordSpan(name_, start_ns_, NowNanos() - start_ns_, arg_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_arg(uint64_t arg) { arg_ = arg; }
  bool armed() const { return armed_; }

 private:
  const char* name_;
  int64_t start_ns_ = 0;
  uint64_t arg_;
  const bool armed_;
};

/// Snapshot of every ring's retained spans, sorted by start_ns. Safe while
/// other threads keep recording; a handful of in-flight slots may be skipped.
std::vector<Span> Dump();

/// The calling thread's own retained spans with start_ns >= since_ns, oldest
/// first. Lock-free (reads only the caller's ring) — this is the
/// slow-request logging path.
std::vector<Span> DumpCurrentThread(int64_t since_ns);

/// Drops all retained spans from every ring (test isolation; also TRACE on
/// re-arms from a clean buffer).
void Clear();

/// One-line rendering: "name start=<ns> dur=<ns> arg=<v> tid=<t>".
std::string FormatSpan(const Span& s);

}  // namespace omqe::trace

#endif  // OMQE_BASE_TRACE_H_
