// Metrics registry: named counters / gauges / histograms.
//
// One mutex guards one name-sorted map. Counters sum and histograms
// combine count/sum/min/max, which do not depend on the order in which
// workers write; a gauge holds its last set value, and set_max() only
// raises it. snapshot() copies the map in name order, so its JSON
// rendering is byte-stable whenever the written values are. That
// property is what lets the differential battery assert that a traced
// run reports the same series and counters as an untraced one.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mrscan::obs {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// One merged metric in a snapshot.
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  /// Counter value, or histogram observation count.
  std::uint64_t count = 0;
  /// Gauge value, or histogram sum.
  double value = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Every metric, sorted by name.
struct MetricsSnapshot {
  std::vector<MetricSample> samples;

  const MetricSample* find(std::string_view name) const;
  std::uint64_t counter(std::string_view name,
                        std::uint64_t fallback = 0) const;
  double gauge(std::string_view name, double fallback = 0.0) const;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Add `delta` to counter `name` (created at zero). Creating a counter
  /// with delta 0 is the idiom for "always present in the snapshot".
  void add(std::string_view name, std::uint64_t delta = 1);

  /// Set gauge `name` to `value`; the last set wins.
  void set(std::string_view name, double value);

  /// Like set(), but only raises the gauge (a max reduction, e.g. the
  /// slowest leaf's device seconds).
  void set_max(std::string_view name, double value);

  /// Record one histogram observation of `name`.
  void observe(std::string_view name, double value);

  /// Every metric, sorted by name. Safe to call concurrently with
  /// writers.
  MetricsSnapshot snapshot() const;

  /// One gauge's value, or `fallback` when it was never set.
  double gauge_value(std::string_view name, double fallback = 0.0) const;

 private:
  struct Slot {
    MetricKind kind = MetricKind::kCounter;
    std::uint64_t count = 0;  // counter value / histogram count
    double sum = 0.0;         // histogram sum
    double gauge = 0.0;       // gauge value
    bool gauge_set = false;
    double min = 0.0;
    double max = 0.0;
  };

  /// The slot of `name`, created with `kind`; `mutex_` must be held.
  Slot& slot_locked(std::string_view name, MetricKind kind);

  mutable std::mutex mutex_;
  std::map<std::string, Slot, std::less<>> slots_;  // guarded by mutex_
};

}  // namespace mrscan::obs
