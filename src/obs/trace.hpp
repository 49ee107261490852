// Span tracer with two clock domains.
//
// A span is a named interval on one of two clocks:
//   * kWall — host seconds since the tracer's construction (steady
//     clock), tracked per OS thread (obs::thread_slot());
//   * kSim  — seconds on the Titan virtual clock (sim::EventQueue time
//     plus a phase offset), tracked per tree node / leaf rank.
// Phase spans nest leaf spans nest network/fault spans purely by time
// containment, which is exactly how the Chrome trace viewer renders
// nesting for complete events on one track.
//
// When constructed disabled, record() returns immediately — the pipeline
// keeps the Tracer pointer unconditionally and pays one predicted branch
// per would-be span (DESIGN §9's disabled-path cost contract).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace mrscan::obs {

enum class SpanClock : std::uint8_t { kWall, kSim };

struct TraceSpan {
  std::string name;
  /// Coarse grouping rendered as the Chrome "cat" field: "phase",
  /// "layer", "leaf", "net", "fault", "pool".
  std::string category;
  SpanClock clock = SpanClock::kWall;
  /// Seconds in the clock's domain.
  double begin = 0.0;
  double end = 0.0;
  /// Wall spans: thread slot. Sim spans: tree node id / leaf rank.
  std::uint32_t track = 0;
  /// Recording order (stable tie-break when sorting by begin time).
  std::uint64_t seq = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// Host seconds since construction (the wall-span time base).
  double wall_now() const;

  /// Record a finished span (seq is assigned here). No-op when disabled.
  void record(TraceSpan span);

  /// Convenience: record a sim-clock span.
  void sim_span(std::string name, std::string category, std::uint32_t track,
                double begin, double end);

  /// Convenience: record a wall-clock span on the calling thread's track.
  void wall_span(std::string name, std::string category, double begin,
                 double end);

  /// RAII wall-clock span: times construction -> destruction on the
  /// calling thread's track.
  class WallScope {
   public:
    WallScope(Tracer& tracer, std::string name, std::string category);
    ~WallScope();
    WallScope(const WallScope&) = delete;
    WallScope& operator=(const WallScope&) = delete;

   private:
    Tracer& tracer_;
    std::string name_;
    std::string category_;
    double begin_;
  };

  /// All spans so far, ordered by (clock, begin, seq).
  std::vector<TraceSpan> spans() const;

 private:
  const bool enabled_;
  const double epoch_;  // steady-clock seconds at construction
  mutable std::mutex mutex_;
  std::uint64_t next_seq_ = 0;  // guarded by mutex_
  std::vector<TraceSpan> spans_;  // guarded by mutex_
};

}  // namespace mrscan::obs
