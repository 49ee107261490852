#include "obs/registry.hpp"

#include <algorithm>
#include <atomic>
#include <limits>

#include "util/assert.hpp"

namespace mrscan::obs {

std::size_t thread_slot() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

const MetricSample* MetricsSnapshot::find(std::string_view name) const {
  const auto it = std::lower_bound(
      samples.begin(), samples.end(), name,
      [](const MetricSample& s, std::string_view n) { return s.name < n; });
  if (it == samples.end() || it->name != name) return nullptr;
  return &*it;
}

std::uint64_t MetricsSnapshot::counter(std::string_view name,
                                       std::uint64_t fallback) const {
  const MetricSample* s = find(name);
  return s != nullptr && s->kind == MetricKind::kCounter ? s->count
                                                         : fallback;
}

double MetricsSnapshot::gauge(std::string_view name, double fallback) const {
  const MetricSample* s = find(name);
  return s != nullptr && s->kind == MetricKind::kGauge ? s->value : fallback;
}

Registry::Shard& Registry::shard_for_this_thread() {
  return shards_[thread_slot() % kShards];
}

Registry::Slot& Registry::slot_locked(Shard& shard, std::string_view name,
                                      MetricKind kind) {
  auto it = shard.slots.find(name);
  if (it == shard.slots.end()) {
    it = shard.slots.emplace(std::string(name), Slot{}).first;
    it->second.kind = kind;
    it->second.min = std::numeric_limits<double>::infinity();
    it->second.max = -std::numeric_limits<double>::infinity();
  }
  MRSCAN_REQUIRE_MSG(it->second.kind == kind,
                     "obs::Registry metric re-registered with a different "
                     "kind");
  return it->second;
}

void Registry::add(std::string_view name, std::uint64_t delta) {
  Shard& shard = shard_for_this_thread();
  std::lock_guard<std::mutex> lock(shard.mutex);
  slot_locked(shard, name, MetricKind::kCounter).count += delta;
}

void Registry::set(std::string_view name, double value) {
  Shard& shard = shard_for_this_thread();
  std::lock_guard<std::mutex> lock(shard.mutex);
  Slot& slot = slot_locked(shard, name, MetricKind::kGauge);
  slot.gauge = value;
  slot.gauge_set = true;
}

void Registry::set_max(std::string_view name, double value) {
  Shard& shard = shard_for_this_thread();
  std::lock_guard<std::mutex> lock(shard.mutex);
  Slot& slot = slot_locked(shard, name, MetricKind::kGauge);
  if (!slot.gauge_set || value > slot.gauge) slot.gauge = value;
  slot.gauge_set = true;
}

void Registry::observe(std::string_view name, double value) {
  Shard& shard = shard_for_this_thread();
  std::lock_guard<std::mutex> lock(shard.mutex);
  Slot& slot = slot_locked(shard, name, MetricKind::kHistogram);
  ++slot.count;
  slot.sum += value;
  slot.min = std::min(slot.min, value);
  slot.max = std::max(slot.max, value);
}

template <typename Fn>
void Registry::for_each_slot(std::string_view name, Fn&& fn) const {
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.slots.find(name);
    if (it != shard.slots.end()) fn(it->second);
  }
}

MetricsSnapshot Registry::snapshot() const {
  // Merge rules are commutative, so visiting shards in index order is a
  // convenience, not a requirement — but it keeps the walk deterministic.
  std::map<std::string, Slot> merged;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [name, slot] : shard.slots) {
      auto [it, inserted] = merged.emplace(name, slot);
      if (inserted) continue;
      Slot& into = it->second;
      MRSCAN_REQUIRE_MSG(into.kind == slot.kind,
                         "obs::Registry metric has mixed kinds across "
                         "shards");
      into.count += slot.count;
      into.sum += slot.sum;
      into.min = std::min(into.min, slot.min);
      into.max = std::max(into.max, slot.max);
      if (slot.gauge_set && (!into.gauge_set || slot.gauge > into.gauge)) {
        into.gauge = slot.gauge;
        into.gauge_set = true;
      }
    }
  }

  MetricsSnapshot snap;
  snap.samples.reserve(merged.size());
  for (const auto& [name, slot] : merged) {
    MetricSample sample;
    sample.name = name;
    sample.kind = slot.kind;
    switch (slot.kind) {
      case MetricKind::kCounter:
        sample.count = slot.count;
        sample.value = static_cast<double>(slot.count);
        break;
      case MetricKind::kGauge:
        sample.value = slot.gauge;
        break;
      case MetricKind::kHistogram:
        sample.count = slot.count;
        sample.value = slot.sum;
        sample.min = slot.count != 0 ? slot.min : 0.0;
        sample.max = slot.count != 0 ? slot.max : 0.0;
        break;
    }
    snap.samples.push_back(std::move(sample));
  }
  return snap;
}

double Registry::gauge_value(std::string_view name, double fallback) const {
  double value = fallback;
  bool seen = false;
  for_each_slot(name, [&](const Slot& slot) {
    if (slot.kind != MetricKind::kGauge || !slot.gauge_set) return;
    if (!seen || slot.gauge > value) value = slot.gauge;
    seen = true;
  });
  return value;
}

}  // namespace mrscan::obs
