#include "measure.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <thread>
#include <unordered_map>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace e2e {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool reset_peak_rss() {
#if defined(__GLIBC__)
  // Without the trim, the allocator's retained arena from the previous
  // run becomes this run's watermark floor.
  malloc_trim(0);
#endif
  std::ofstream out("/proc/self/clear_refs");
  if (!out) return false;
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
    in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0.0;
}

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv_bytes(std::uint64_t& h, const unsigned char* data, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= kFnvPrime;
  }
}

void fnv_u64(std::uint64_t& h, std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (8 * byte)) & 0xffULL;
    h *= kFnvPrime;
  }
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::uint32_t thread_number() {
  static std::mutex mutex;
  static std::unordered_map<std::thread::id, std::uint32_t> ids;
  const std::lock_guard<std::mutex> lock(mutex);
  const auto [it, inserted] = ids.try_emplace(
      std::this_thread::get_id(), static_cast<std::uint32_t>(ids.size()));
  return it->second;
}

}  // namespace

std::uint64_t file_digest(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::uint64_t h = kFnvOffset;
  std::vector<char> buf(1 << 20);
  while (in) {
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    fnv_bytes(h, reinterpret_cast<const unsigned char*>(buf.data()),
              static_cast<std::size_t>(in.gcount()));
  }
  return h;
}

std::uint64_t canonical_digest(
    std::vector<mrscan::sweep::LabeledPoint> records) {
  std::sort(records.begin(), records.end(),
            [](const auto& a, const auto& b) {
              return a.point.id < b.point.id;
            });
  std::unordered_map<std::int64_t, std::int64_t> rename;
  std::uint64_t h = kFnvOffset;
  for (const auto& r : records) {
    std::int64_t cluster = r.cluster;
    if (cluster >= 0) {
      cluster = rename
                    .try_emplace(cluster,
                                 static_cast<std::int64_t>(rename.size()))
                    .first->second;
    }
    fnv_u64(h, r.point.id);
    fnv_u64(h, std::bit_cast<std::uint64_t>(r.point.x));
    fnv_u64(h, std::bit_cast<std::uint64_t>(r.point.y));
    fnv_u64(h, std::bit_cast<std::uint32_t>(r.point.weight));
    fnv_u64(h, static_cast<std::uint64_t>(cluster));
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(v.size())));
  return v[i - 1];
}

SpanRecorder::SpanRecorder() : start_(now_s()) {}

std::int64_t SpanRecorder::open(std::string name, std::int64_t parent,
                                std::uint64_t run) {
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.run = run;
  span.thread = thread_number();
  span.begin = elapsed();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanRecorder::close(std::int64_t index) {
  const double end = elapsed();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end = end;
}

std::vector<Span> SpanRecorder::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::string SpanRecorder::chrome_json() const {
  const std::vector<Span> all = spans();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    if (i > 0) out += ",";
    out += "{\"name\":\"" + s.name + "\",\"cat\":\"" +
           s.name.substr(0, s.name.find('.')) +
           "\",\"ph\":\"X\",\"pid\":0,\"tid\":" + std::to_string(s.thread) +
           ",\"ts\":" + json_number(s.begin * 1e6) +
           ",\"dur\":" + json_number((s.end - s.begin) * 1e6) +
           ",\"args\":{\"id\":" + std::to_string(i) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"run\":" + std::to_string(s.run) + "}}";
  }
  out += "]}\n";
  return out;
}

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "e2ebench: FAILED %s\n", what.c_str());
  }
}

std::string Outcome::json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(1, attempted));
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + json_number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace e2e
