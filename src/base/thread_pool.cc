#include "base/thread_pool.h"

#include "base/status.h"

namespace omqe {

ThreadPool::ThreadPool(uint32_t threads, size_t max_pending)
    : max_pending_(max_pending) {
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  for (uint32_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    OMQE_CHECK(!stopping_);
    jobs_.push_back(std::move(job));
  }
  cv_.notify_one();
}

bool ThreadPool::TrySubmit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    OMQE_CHECK(!stopping_);
    if (max_pending_ > 0 && jobs_.size() >= max_pending_) return false;
    jobs_.push_back(std::move(job));
  }
  cv_.notify_one();
  return true;
}

size_t ThreadPool::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return jobs_.size();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !jobs_.empty(); });
      if (jobs_.empty()) return;  // stopping and drained
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    job();
  }
}

}  // namespace omqe
