// Fixed-size thread pool with a parallel_for helper.
//
// The virtual GPU device and the simulated MRNet processes are logical
// entities; the pool only supplies host-side parallelism where it is safe
// (per-leaf clustering, data generation). All scheduling is deterministic
// when worker_count() == 1, which the test suite relies on.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace mrscan::util {

class ThreadPool {
 public:
  /// threads == 0 selects hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const { return workers_.size(); }

  /// The worker count ThreadPool(threads) starts: `threads`, or
  /// hardware_concurrency (at least 1) when it is 0.
  static std::size_t resolve_worker_count(std::size_t threads);

  /// Enqueue a task. A task that throws does not kill the worker: the
  /// first exception is captured and rethrown from the next wait_idle()
  /// (and therefore from parallel_for); later exceptions before that
  /// wait are counted in dropped_exceptions() instead of vanishing.
  /// Remaining queued tasks still run.
  void submit(std::function<void()> task);

  /// Block until all submitted tasks have finished. Rethrows the first
  /// exception any task raised since the last wait, clearing it so the
  /// pool stays usable.
  void wait_idle();

  /// Exceptions swallowed since construction: every task exception that
  /// could not become the rethrown "first" one. Callers that must not
  /// lose failures assert this stays zero across their wait_idle() calls
  /// (a throwing run rethrows the first and counts the rest here).
  std::size_t dropped_exceptions() const;

  /// Run fn(i) for i in [begin, end), blocking until done. Workers claim
  /// indices one at a time from a shared counter, in ascending order, so
  /// an idle worker takes the next index instead of waiting behind a
  /// slow one; a 1-worker pool runs them in order. If fn throws, that
  /// worker stops claiming, the others claim the rest, and the first
  /// exception is rethrown here after they finish (later ones are
  /// counted in dropped_exceptions()).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  mutable std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::exception_ptr first_exception_;     // guarded by mutex_
  std::size_t dropped_exceptions_ = 0;     // guarded by mutex_
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

}  // namespace mrscan::util
