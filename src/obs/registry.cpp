#include "obs/registry.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"

namespace mrscan::obs {

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

Registry::Slot& Registry::slot_locked(std::string_view name,
                                      MetricKind kind) {
  auto it = slots_.find(name);
  if (it == slots_.end()) {
    it = slots_.emplace(std::string(name), Slot{}).first;
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
  std::lock_guard<std::mutex> lock(mutex_);
  slot_locked(name, MetricKind::kCounter).count += delta;
}

void Registry::set(std::string_view name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  Slot& slot = slot_locked(name, MetricKind::kGauge);
  slot.gauge = value;
  slot.gauge_set = true;
}

void Registry::set_max(std::string_view name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  Slot& slot = slot_locked(name, MetricKind::kGauge);
  if (!slot.gauge_set || value > slot.gauge) slot.gauge = value;
  slot.gauge_set = true;
}

void Registry::observe(std::string_view name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  Slot& slot = slot_locked(name, MetricKind::kHistogram);
  ++slot.count;
  slot.sum += value;
  slot.min = std::min(slot.min, value);
  slot.max = std::max(slot.max, value);
}

MetricsSnapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  snap.samples.reserve(slots_.size());
  for (const auto& [name, slot] : slots_) {
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
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = slots_.find(name);
  return it != slots_.end() && it->second.kind == MetricKind::kGauge
             ? it->second.gauge
             : fallback;
}

}  // namespace mrscan::obs
