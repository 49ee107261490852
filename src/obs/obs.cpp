#include "obs/obs.hpp"

#include <charconv>
#include <exception>

#include "util/logging.hpp"

namespace mrscan::obs {

namespace {

std::string format_seconds(double s) {
  char buf[32];
  const auto res =
      std::to_chars(buf, buf + sizeof(buf), s, std::chars_format::fixed, 3);
  return std::string(buf, res.ptr) + "s";
}

}  // namespace

std::string Recorder::phase_summary() const {
  std::string out;
  for (const char* phase : {"partition", "cluster", "merge", "sweep"}) {
    if (!out.empty()) out += " | ";
    out += phase;
    out += ' ';
    out += format_seconds(
        registry_.gauge_value(std::string("wall.") + phase, 0.0));
  }
  return out;
}

void Recorder::export_artifacts(const Options& options) const {
  try {
    if (!options.trace_out.empty()) {
      write_text_file(options.trace_out, chrome_trace_json(tracer_));
    }
    if (!options.metrics_out.empty()) {
      write_text_file(options.metrics_out,
                      metrics_json(registry_.snapshot()));
    }
  } catch (const std::exception& e) {
    util::log_error(std::string("obs export failed: ") + e.what());
  }
}

PhaseScope::PhaseScope(Recorder& recorder, std::string phase)
    : recorder_(recorder),
      phase_(std::move(phase)),
      trace_begin_(recorder.tracer().wall_now()) {}

PhaseScope::~PhaseScope() {
  const double elapsed = timer_.seconds();
  recorder_.metrics().set("wall." + phase_, elapsed);
  if (recorder_.tracing()) {
    recorder_.tracer().wall_span("phase:" + phase_, "phase", trace_begin_,
                                 recorder_.tracer().wall_now());
  }
}

LayerSpan::LayerSpan(Recorder* recorder, const char* name,
                     const char* category) {
  if (recorder != nullptr && recorder->tracing()) {
    scope_.emplace(recorder->tracer(), name, category);
  }
}

LayerSpan::LayerSpan(Recorder* recorder, const char* name, std::size_t index,
                     const char* category) {
  if (recorder != nullptr && recorder->tracing()) {
    scope_.emplace(recorder->tracer(),
                   std::string(name) + ' ' + std::to_string(index), category);
  }
}

void PoolMetrics::on_enqueue(std::size_t queue_depth) {
  registry_.add("pool.tasks");
  registry_.observe("pool.queue_depth", static_cast<double>(queue_depth));
}

void PoolMetrics::on_task_done(std::size_t worker) {
  registry_.add("pool.worker." + std::to_string(worker) + ".tasks");
}

}  // namespace mrscan::obs
