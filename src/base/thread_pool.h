// Fixed-size worker pool for the server's requests: each request is one
// job, queued through the bounded TrySubmit so an overloaded server sheds
// instead of queueing without limit.
//
// The pool is deliberately dumb: no work stealing, no priorities. Jobs run
// in submission order.
#ifndef OMQE_BASE_THREAD_POOL_H_
#define OMQE_BASE_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace omqe {

class ThreadPool {
 public:
  /// Spawns `threads` workers (0 is promoted to 1). `max_pending` bounds
  /// the queue TrySubmit honors: 0 means unbounded, otherwise TrySubmit
  /// rejects once that many jobs are waiting — the server's overload-shed
  /// mechanism (a rejected request answers ERR OVERLOAD instead of queueing
  /// behind work it will time out waiting for).
  explicit ThreadPool(uint32_t threads, size_t max_pending = 0);
  /// Drains outstanding jobs, then joins.
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one job; jobs start in submission order. Never rejects, for
  /// work that must not be shed.
  void Submit(std::function<void()> job);

  /// Bounded enqueue: false (job not queued) when max_pending jobs are
  /// already waiting. With max_pending == 0 this is Submit.
  bool TrySubmit(std::function<void()> job);

  /// Jobs waiting to start (excludes jobs currently running).
  size_t pending() const;

  uint32_t num_threads() const {
    return static_cast<uint32_t>(workers_.size());
  }

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> jobs_;
  size_t max_pending_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace omqe

#endif  // OMQE_BASE_THREAD_POOL_H_
