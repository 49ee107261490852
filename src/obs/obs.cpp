#include "obs/obs.hpp"

#include <charconv>

#include "obs/names.hpp"

namespace mrscan::obs {

namespace {

std::string format_seconds(double s) {
  char buf[32];
  const auto res =
      std::to_chars(buf, buf + sizeof(buf), s, std::chars_format::fixed, 3);
  return std::string(buf, res.ptr) + "s";
}

}  // namespace

double Recorder::wall_seconds(std::string_view phase) const {
  return registry_.gauge_value(std::string(names::kWallPrefix).append(phase),
                               0.0);
}

std::string Recorder::phase_summary() const {
  std::string out;
  for (const char* phase : {"partition", "cluster", "merge", "sweep"}) {
    if (!out.empty()) out += " | ";
    out += phase;
    out += ' ';
    out += format_seconds(wall_seconds(phase));
  }
  return out;
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

}  // namespace mrscan::obs
