// std::mutex with a process-wide acquisition counter and a per-thread held
// count. The serving stack's locks (registry, session table) and the
// metric and trace registries are CountedMutex so two properties become
// *testable* instead of aspirational:
//
//   1. "Teardown never runs under a lock" — every site that drops a closed
//      session or a displaced PreparedOMQ asserts HeldByThisThread() == 0
//      first, so a session/overlay/artifact destructor can never stall
//      concurrent requests.
//   2. "Metric and trace record paths take no lock" — obs_test snapshots
//      TotalAcquisitions(), records, and asserts the counter did not move;
//      server_test uses the same counter to pin that a FETCH's lock count
//      does not grow with its row count.
//
// The counters are relaxed atomics / thread-locals: nanoseconds on paths
// that already pay for a mutex, nothing at all on paths that don't.
#ifndef OMQE_BASE_COUNTED_MUTEX_H_
#define OMQE_BASE_COUNTED_MUTEX_H_

#include <atomic>
#include <cstdint>
#include <mutex>

namespace omqe {

class CountedMutex {
 public:
  CountedMutex() = default;
  CountedMutex(const CountedMutex&) = delete;
  CountedMutex& operator=(const CountedMutex&) = delete;

  void lock() {
    mu_.lock();
    total_.fetch_add(1, std::memory_order_relaxed);
    ++held_;
  }

  bool try_lock() {
    if (!mu_.try_lock()) return false;
    total_.fetch_add(1, std::memory_order_relaxed);
    ++held_;
    return true;
  }

  void unlock() {
    --held_;
    mu_.unlock();
  }

  /// Process-wide count of successful lock()/try_lock() acquisitions across
  /// ALL CountedMutex instances. Monotonic; compare snapshots around a code
  /// region to prove it is mutex-free.
  static uint64_t TotalAcquisitions() {
    return total_.load(std::memory_order_relaxed);
  }

  /// How many CountedMutex locks the calling thread holds right now.
  static uint32_t HeldByThisThread() { return held_; }

 private:
  std::mutex mu_;
  static inline std::atomic<uint64_t> total_{0};
  static inline thread_local uint32_t held_ = 0;
};

}  // namespace omqe

#endif  // OMQE_BASE_COUNTED_MUTEX_H_
