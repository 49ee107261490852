// Metrics registry: named counters / gauges / histograms.
//
// Writes land in one of a fixed set of shards selected by a per-thread
// slot id, so concurrent increments from the host ThreadPool never
// contend on a global lock. Every merge rule is commutative — counters
// sum, gauges take the max of per-shard last-set values, histograms
// combine count/sum/min/max — so snapshot() is deterministic (and its
// JSON rendering byte-stable) no matter which worker performed which
// write: metrics are emitted sorted by name with order-independent
// values. That property is what lets the differential battery assert
// that a traced run reports the same series and counters as an untraced
// one.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mrscan::obs {

/// Small dense id for the calling OS thread (stable for its lifetime).
/// Shared by the registry's shard selection and the tracer's wall-clock
/// track assignment.
std::size_t thread_slot();

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// One merged metric in a snapshot.
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  /// Counter value, or histogram observation count.
  std::uint64_t count = 0;
  /// Gauge value (max across shards), or histogram sum.
  double value = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// A deterministic, name-sorted merge of every shard.
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

  /// Set gauge `name` in the calling thread's shard. Cross-shard merge
  /// takes the maximum of the per-shard last-set values, which is
  /// deterministic whenever the *set* of written values is (single-writer
  /// gauges — the common case — are returned verbatim).
  void set(std::string_view name, double value);

  /// Like set(), but only raises the shard's value (a cross-thread max
  /// reduction, e.g. the slowest leaf's device seconds).
  void set_max(std::string_view name, double value);

  /// Record one histogram observation of `name`.
  void observe(std::string_view name, double value);

  /// Merge every shard, sorted by name. Safe to call concurrently with
  /// writers (each shard is locked in turn).
  MetricsSnapshot snapshot() const;

  /// Point lookup that merges on demand (cold paths only).
  double gauge_value(std::string_view name, double fallback = 0.0) const;

 private:
  struct Slot {
    MetricKind kind = MetricKind::kCounter;
    std::uint64_t count = 0;  // counter value / histogram count
    double sum = 0.0;         // histogram sum
    double gauge = 0.0;       // gauge last-set value in this shard
    bool gauge_set = false;
    double min = 0.0;
    double max = 0.0;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::map<std::string, Slot, std::less<>> slots;
  };
  static constexpr std::size_t kShards = 16;

  Shard& shard_for_this_thread();
  Slot& slot_locked(Shard& shard, std::string_view name, MetricKind kind);
  template <typename Fn>
  void for_each_slot(std::string_view name, Fn&& fn) const;

  std::array<Shard, kShards> shards_;
};

}  // namespace mrscan::obs
