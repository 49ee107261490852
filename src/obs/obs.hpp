// Unified observability for the Mr. Scan pipeline.
//
// One Recorder per pipeline run bundles the metrics Registry (always
// live — it backs MrScanResult's bookkeeping, replacing the scattered
// hand-rolled stat plumbing) with the span Tracer (live only when
// observability is enabled). The cost contract (DESIGN §9):
//
//   disabled — no spans, no per-task or per-message instrumentation;
//              only the O(phases + leaves) registry writes that populate
//              MrScanResult, which existed as ad-hoc bookkeeping before
//              this subsystem;
//   enabled  — spans for phases / leaves / network events on both the
//              wall clock and the Titan virtual clock, ThreadPool queue
//              metrics, and optional JSON export, with zero effect on
//              pipeline output (asserted by the differential battery).
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace mrscan::obs {

/// Per-run observability options (MrScanConfig::observability).
struct Options {
  /// Master switch for span tracing and hot-path instrumentation.
  bool enabled = false;
  /// Chrome trace-event JSON output path ("" = no file).
  std::string trace_out;
  /// Metrics snapshot JSON output path ("" = no file).
  std::string metrics_out;
};

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

  /// One-line wall-clock phase summary from the registry, e.g.
  /// "partition 0.012s | cluster 0.034s | merge 0.002s | sweep 0.001s".
  std::string phase_summary() const;

  /// Write the configured JSON artifacts. I/O failures are logged (a bad
  /// trace path must not kill a completed clustering run), never thrown.
  void export_artifacts(const Options& options) const;

 private:
  Registry registry_;
  Tracer tracer_;
};

/// RAII phase instrumentation: times the scope on the wall clock, stores
/// the result as gauge "wall.<phase>" (the single source of truth that
/// MrScanResult::wall is populated from), and — when tracing — records a
/// "phase:<phase>" wall span.
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

/// Adapter publishing util::ThreadPool activity into the registry:
/// counter "pool.tasks", per-worker counters "pool.worker.<i>.tasks",
/// histogram "pool.queue_depth" (depth observed at each enqueue). Attach
/// only when tracing — per-task instrumentation is hot-path cost.
class PoolMetrics : public util::ThreadPool::Observer {
 public:
  explicit PoolMetrics(Registry& registry) : registry_(registry) {}

  void on_enqueue(std::size_t queue_depth) override;
  void on_task_done(std::size_t worker) override;

 private:
  Registry& registry_;
};

}  // namespace mrscan::obs
