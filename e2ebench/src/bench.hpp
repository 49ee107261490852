// Workloads of the end-to-end bench and the entry points main.cpp
// dispatches to. README.md explains each workload and metric.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/mrscan.hpp"
#include "geometry/point.hpp"
#include "measure.hpp"
#include "sweep/sweep.hpp"

namespace e2e {

enum class Dataset { kTwitter, kSdss, kServeTwitter };

struct Workload {
  std::string name;
  Dataset dataset = Dataset::kTwitter;
  /// Batch pipeline configuration (unused by the serve workload).
  mrscan::core::MrScanConfig config;
};

/// The workload table; nullptr for an unknown name.
const Workload* find_workload(const std::string& name);

/// What a run's output must match. Every field is optional: the recorded
/// reference of the default seed carries all of them, a reference
/// computed for another seed only the clustering (digest, count).
struct Expectation {
  std::optional<std::uint64_t> canonical;  // canonical_digest
  std::optional<std::uint64_t> raw;        // file_digest of the text output
  std::optional<std::uint64_t> clusters;
  std::optional<std::uint64_t> records;
  std::optional<double> sim_s;
};

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for the input file, outputs and spools.
  std::filesystem::path workdir;
  /// Where the traced run writes its Chrome trace ("" = nowhere).
  std::filesystem::path trace_out;
  Expectation expect;
};

/// Generate the workload's input points from `seed` (the set-up work).
mrscan::geom::PointSet make_points(Dataset dataset, std::uint64_t seed);

/// Untimed oracle run for `seed`: resident, two-pass, one host thread.
/// Prints one line "canonical=<hex> clusters=<n> records=<n> sim_s=<v>".
int compute_reference(const Workload& workload, std::uint64_t seed);

/// The batch workloads: set-up, the timed loop (--trace 0) or the
/// untraced/traced pairs with the staged pass (--trace 1), output checks.
void run_batch(const Options& options, Outcome& outcome);

/// The serve workload: concurrent writer (mutations + epochs) and reader
/// (label_of) against one ClusterService.
void run_serve(const Options& options, Outcome& outcome);

/// What one pass over a batch workload produced.
struct BatchRun {
  double wall_s = 0.0;  // input read -> output closed
  double sim_s = 0.0;
  std::uint64_t clusters = 0;
  std::uint64_t records = 0;
  /// Records in output order, for the canonical digest.
  std::vector<mrscan::sweep::LabeledPoint> output;
  /// Per-layer metrics (staged pass only).
  std::map<std::string, Metric> layers;
};

/// Paths one pass reads and writes.
struct RunPaths {
  std::filesystem::path input;   // MRSC binary point file
  std::filesystem::path output;  // labeled text, as mrscan_cli writes it
  std::filesystem::path spool;   // out-of-core spool directory
};

/// The mrscan_cli path through MrScan::run, untraced.
BatchRun run_pipeline(const Workload& workload, const RunPaths& paths);

/// The same pass driven stage by stage through the layers' public
/// functions, in MrScan::run's order, with every call inside a span.
BatchRun run_staged(const Workload& workload, const RunPaths& paths,
                    SpanRecorder& spans, std::uint64_t run_id);

}  // namespace e2e
