// Unified observability for the Mr. Scan pipeline.
//
// One Recorder per pipeline run bundles the metrics Registry (always
// live: it is where a run's statistics are kept) with the span Tracer
// (live only when the run is traced). The cost contract (DESIGN §9):
//
//   untraced — no spans, no per-task or per-message instrumentation;
//              only the O(phases + leaves) registry writes;
//   traced   — the same registry series plus spans for phases / leaves /
//              network events on both the wall clock and the Titan
//              virtual clock, with zero effect on pipeline output
//              (asserted by the differential battery).
//
// The library writes no files: callers export the recorder through
// obs/export.hpp.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace mrscan::obs {

/// The per-run recorder: one Registry + one Tracer.
class Recorder {
 public:
  explicit Recorder(bool tracing) : tracer_(tracing) {}

  Registry& metrics() { return registry_; }
  const Registry& metrics() const { return registry_; }
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }

  /// True when span tracing (and hot-path instrumentation) is on.
  bool tracing() const { return tracer_.enabled(); }

  /// Host seconds of `phase` ("partition", "cluster", ...): its
  /// "wall.<phase>" gauge, 0 when the phase never ran.
  double wall_seconds(std::string_view phase) const;

  /// One-line wall-clock phase summary from the registry, e.g.
  /// "partition 0.012s | cluster 0.034s | merge 0.002s | sweep 0.001s".
  std::string phase_summary() const;

 private:
  Registry registry_;
  Tracer tracer_;
};

/// RAII phase instrumentation: times the scope on the wall clock, stores
/// the result as gauge "wall.<phase>" (the run's only copy of it), and —
/// when tracing — records a "phase:<phase>" wall span.
class PhaseScope {
 public:
  PhaseScope(Recorder& recorder, std::string phase);
  ~PhaseScope();
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  Recorder& recorder_;
  std::string phase_;
  util::Timer timer_;
  double trace_begin_;
};

/// A wall span over one layer of a phase, opened only while `recorder`
/// traces: untraced, it builds no name and reads no clock (DESIGN §9).
/// The indexed form names the span "<name> <index>", e.g. "cluster leaf
/// 3". `recorder` may be null.
class LayerSpan {
 public:
  LayerSpan(Recorder* recorder, const char* name,
            const char* category = "layer");
  LayerSpan(Recorder* recorder, const char* name, std::size_t index,
            const char* category);
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

 private:
  std::optional<Tracer::WallScope> scope_;
};

}  // namespace mrscan::obs
