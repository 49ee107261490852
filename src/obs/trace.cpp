#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <utility>

namespace mrscan::obs {

namespace {

/// Small dense id for the calling OS thread (stable for its lifetime):
/// a wall span's track.
std::size_t thread_slot() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(enabled ? steady_seconds() : 0.0) {}

double Tracer::wall_now() const {
  return enabled_ ? steady_seconds() - epoch_ : 0.0;
}

void Tracer::record(TraceSpan span) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  span.seq = next_seq_++;
  spans_.push_back(std::move(span));
}

void Tracer::sim_span(std::string name, std::string category,
                      std::uint32_t track, double begin, double end) {
  if (!enabled_) return;
  TraceSpan span;
  span.name = std::move(name);
  span.category = std::move(category);
  span.clock = SpanClock::kSim;
  span.begin = begin;
  span.end = end;
  span.track = track;
  record(std::move(span));
}

void Tracer::wall_span(std::string name, std::string category, double begin,
                       double end) {
  if (!enabled_) return;
  TraceSpan span;
  span.name = std::move(name);
  span.category = std::move(category);
  span.clock = SpanClock::kWall;
  span.begin = begin;
  span.end = end;
  span.track = static_cast<std::uint32_t>(thread_slot());
  record(std::move(span));
}

Tracer::WallScope::WallScope(Tracer& tracer, std::string name,
                             std::string category)
    : tracer_(tracer),
      name_(std::move(name)),
      category_(std::move(category)),
      begin_(tracer.wall_now()) {}

Tracer::WallScope::~WallScope() {
  tracer_.wall_span(std::move(name_), std::move(category_), begin_,
                    tracer_.wall_now());
}

std::vector<TraceSpan> Tracer::spans() const {
  std::vector<TraceSpan> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out = spans_;
  }
  std::sort(out.begin(), out.end(),
            [](const TraceSpan& a, const TraceSpan& b) {
              if (a.clock != b.clock) return a.clock < b.clock;
              if (a.begin != b.begin) return a.begin < b.begin;
              return a.seq < b.seq;
            });
  return out;
}

}  // namespace mrscan::obs
