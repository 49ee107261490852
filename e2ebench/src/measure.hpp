// Measurement helpers shared by every workload of the end-to-end bench:
// clocks, per-run peak RSS, output digests, order statistics, an
// in-memory span recorder and the final JSON result line.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "sweep/sweep.hpp"

namespace e2e {

/// Steady-clock seconds since an arbitrary epoch.
double now_s();

// ---- per-run peak RSS --------------------------------------------------

/// Return freed heap pages to the OS and reset the kernel's VmHWM
/// watermark (write "5" to /proc/self/clear_refs), so the next
/// peak_rss_mb() reads this run's own peak rather than the process
/// maximum. Returns false where the kernel refuses the reset.
bool reset_peak_rss();

/// Peak resident set (VmHWM) of this process in MiB since the last reset.
double peak_rss_mb();

// ---- digests -----------------------------------------------------------

/// FNV-1a 64 over a file's bytes; byte-identity of two outputs.
std::uint64_t file_digest(const std::filesystem::path& path);

/// Digest of a clustering that does not depend on record order or on the
/// numbering of cluster ids: records sorted by point id, clusters renamed
/// by first appearance in id order, then (id, x, y, weight, cluster)
/// hashed. Leaf count, tree shape, cluster algorithm and thread count
/// all leave it unchanged.
std::uint64_t canonical_digest(std::vector<mrscan::sweep::LabeledPoint> records);

std::string hex64(std::uint64_t v);

// ---- order statistics --------------------------------------------------

double median(std::vector<double> v);
/// Nearest-rank percentile, q in [0, 100].
double percentile(std::vector<double> v, double q);

/// Set-up time: run `setup` at least 5 times and until 1.5 s have
/// passed, and return the median duration. A short set-up thus gets
/// enough samples for a steady median.
template <typename Fn>
double median_setup_s(Fn&& setup) {
  std::vector<double> samples;
  const double begin = now_s();
  while (samples.size() < 5 || now_s() - begin < 1.5) {
    const double t0 = now_s();
    setup();
    samples.push_back(now_s() - t0);
  }
  return median(std::move(samples));
}

// ---- spans -------------------------------------------------------------

/// One traced interval: wall seconds since the recorder's start, the
/// index of its enclosing span (-1 at top level), the thread that ran it
/// and the run (batch iteration) or epoch it belongs to.
struct Span {
  std::string name;
  double begin = 0.0;
  double end = 0.0;
  std::int64_t parent = -1;
  std::uint32_t thread = 0;
  std::uint64_t run = 0;
};

/// Thread-safe in-memory span store. Parents are explicit indices, so a
/// span opened on a pool worker can hang under the phase span that the
/// main thread holds open.
class SpanRecorder {
 public:
  SpanRecorder();

  double elapsed() const { return now_s() - start_; }

  /// Open a span; returns its index for close() and as a parent id.
  std::int64_t open(std::string name, std::int64_t parent, std::uint64_t run);
  void close(std::int64_t index);

  std::vector<Span> spans() const;

  /// Chrome trace-event JSON (open in ui.perfetto.dev).
  std::string chrome_json() const;

 private:
  double start_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span on a recorder; a null recorder makes it a no-op.
class Scope {
 public:
  Scope(SpanRecorder* rec, std::string name, std::int64_t parent,
        std::uint64_t run)
      : rec_(rec),
        index_(rec == nullptr ? -1 : rec->open(std::move(name), parent, run)) {}
  ~Scope() {
    if (rec_ != nullptr) rec_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::int64_t id() const { return index_; }

 private:
  SpanRecorder* rec_;
  std::int64_t index_;
};

// ---- result line -------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// The outcome of one benchmark invocation, printed as the last stdout
/// line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Count one checked operation; a false `ok` counts it as failed and
  /// prints `what` to stderr.
  void check(bool ok, const std::string& what);

  bool correct() const { return failed == 0; }
  std::string json() const;
};

}  // namespace e2e
