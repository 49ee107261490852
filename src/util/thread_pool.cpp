#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>

namespace mrscan::util {

std::size_t ThreadPool::resolve_worker_count(std::size_t threads) {
  if (threads != 0) return threads;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t threads) {
  threads = resolve_worker_count(threads);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_exception_) {
    std::exception_ptr e = nullptr;
    std::swap(e, first_exception_);
    lock.unlock();
    std::rethrow_exception(e);
  }
}

std::size_t ThreadPool::dropped_exceptions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_exceptions_;
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  // One claiming task per worker: each takes the next unclaimed index
  // until none is left, so a worker that finishes early keeps pulling
  // work instead of idling behind a slow index. wait_idle() returns only
  // after every task has, so the counter outlives its readers.
  std::atomic<std::size_t> next{begin};
  const std::size_t tasks = std::min(end - begin, worker_count());
  for (std::size_t t = 0; t < tasks; ++t) {
    submit([&next, end, &fn] {
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < end; i = next.fetch_add(1, std::memory_order_relaxed)) {
        fn(i);
      }
    });
  }
  wait_idle();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    std::exception_ptr thrown = nullptr;
    try {
      task();
    } catch (...) {
      thrown = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      // Hand the reference off (or drop it) entirely inside the critical
      // section: releasing it after unlock would make the refcount drop
      // race with the waiter consuming the rethrown exception.
      if (thrown) {
        if (!first_exception_) {
          first_exception_ = std::move(thrown);
        } else {
          ++dropped_exceptions_;
        }
        thrown = nullptr;
      }
      --in_flight_;
      if (in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

}  // namespace mrscan::util
