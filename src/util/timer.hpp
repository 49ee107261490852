// Wall-clock timing: Timer measures a single interval. A run's per-phase
// wall seconds live in its obs::Recorder (the "wall.<phase>" gauges).
#pragma once

#include <chrono>

namespace mrscan::util {

class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace mrscan::util
