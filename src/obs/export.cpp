#include "obs/export.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace mrscan::obs {

namespace {

/// Shortest round-trip decimal rendering (deterministic across runs and
/// platforms using the same libc++/libstdc++ to_chars).
std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";  // JSON has no inf/nan
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(static_cast<unsigned char>(c) >> 4) & 0xf];
          out += hex[static_cast<unsigned char>(c) & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "unknown";
}

}  // namespace

std::string chrome_trace_json(const Tracer& tracer) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  out +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"host wall clock\"}},";
  out +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"titan virtual clock\"}}";
  for (const TraceSpan& span : tracer.spans()) {
    const int pid = span.clock == SpanClock::kWall ? 0 : 1;
    const double ts_us = span.begin * 1e6;
    const double dur_us = (span.end - span.begin) * 1e6;
    out += ",{\"name\":\"" + json_escape(span.name) + "\",\"cat\":\"" +
           json_escape(span.category) + "\",\"ph\":\"X\",\"pid\":" +
           std::to_string(pid) + ",\"tid\":" + std::to_string(span.track) +
           ",\"ts\":" + json_number(ts_us) + ",\"dur\":" +
           json_number(dur_us < 0.0 ? 0.0 : dur_us) + "}";
  }
  out += "]}\n";
  return out;
}

std::string metrics_json(const MetricsSnapshot& snapshot) {
  std::string out = "{\"schema\":\"mrscan-metrics-v1\",\"metrics\":[";
  bool first = true;
  for (const MetricSample& s : snapshot.samples) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + json_escape(s.name) + "\",\"kind\":\"" +
           kind_name(s.kind) + "\"";
    switch (s.kind) {
      case MetricKind::kCounter:
        out += ",\"value\":" + std::to_string(s.count);
        break;
      case MetricKind::kGauge:
        out += ",\"value\":" + json_number(s.value);
        break;
      case MetricKind::kHistogram:
        out += ",\"count\":" + std::to_string(s.count) +
               ",\"sum\":" + json_number(s.value) +
               ",\"min\":" + json_number(s.min) +
               ",\"max\":" + json_number(s.max);
        break;
    }
    out += "}";
  }
  out += "]}\n";
  return out;
}

void write_text_file(const std::string& path, const std::string& content) {
  // The OS reason, as io::fail gives it (obs may include only util).
  const auto fail = [&path](const char* what) {
    const int saved_errno = errno;
    std::string message = std::string("obs: ") + what + ": " + path;
    if (saved_errno != 0) {
      message += ": ";
      message += std::strerror(saved_errno);
    }
    throw std::runtime_error(message);
  };
  errno = 0;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) fail("cannot open for writing");
  out.write(content.data(),
            static_cast<std::streamsize>(content.size()));
  // close() flushes what the stream still buffers; the destructor would
  // swallow a failure there (a full disk).
  out.close();
  if (!out) fail("short write");
}

}  // namespace mrscan::obs
