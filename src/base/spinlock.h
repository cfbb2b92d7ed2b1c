// Tiny test-and-set lock for critical sections a few dozen nanoseconds
// long — per-session cursor stepping in the server. A full std::mutex is
// overkill there: one client per session makes contention rare, and parking
// in the kernel would put a mutex back on a path engineered to have none.
// After a bounded busy-wait the loop yields the timeslice: on an
// oversubscribed machine (8 threads on a 1-core CI container) the holder may
// be preempted mid-section, and spinning through its whole quantum turns a
// 20ns critical section into a multi-millisecond stall.
#ifndef OMQE_BASE_SPINLOCK_H_
#define OMQE_BASE_SPINLOCK_H_

#include <atomic>
#include <thread>

namespace omqe {

class SpinLock {
 public:
  void lock() {
    int spins = 0;
    while (flag_.test_and_set(std::memory_order_acquire)) {
      if (++spins < 64) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      } else {
        std::this_thread::yield();
        spins = 0;
      }
    }
  }

  /// One shot, no spin: the idle reaper uses it to treat "lock held" as
  /// "session in use" without ever waiting on cursor work.
  bool try_lock() { return !flag_.test_and_set(std::memory_order_acquire); }

  void unlock() { flag_.clear(std::memory_order_release); }

 private:
  std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
};

}  // namespace omqe

#endif  // OMQE_BASE_SPINLOCK_H_
