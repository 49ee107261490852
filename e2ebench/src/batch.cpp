// Batch workloads: set-up, the timed loop, the traced pairs and every
// output check.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

#include "bench.hpp"
#include "data/sdss.hpp"
#include "data/twitter.hpp"
#include "io/labeled_file.hpp"
#include "io/point_file.hpp"
#include "util/rng.hpp"

namespace e2e {

using namespace mrscan;

namespace {

constexpr std::uint64_t kBatchPoints = 1'000'000;
/// The Twitter "population": the generator's fixed city map, drawn at
/// twice the workload size. A seed picks which half is the workload, so
/// seeds differ in every point while the hot spots that set the leaf
/// imbalance stay put (the paper likewise samples a fixed empirical tweet
/// distribution).
constexpr std::uint64_t kTwitterPopulation = 2 * kBatchPoints;

core::MrScanConfig twitter_config(std::size_t leaves, std::size_t threads) {
  core::MrScanConfig c;
  c.params = {0.1, 40};
  c.leaves = leaves;
  c.fanout = 256;
  c.partition_nodes = 4;
  c.cluster_algo = cluster::ClusterAlgo::kCellGraph;
  c.host_threads = threads;
  return c;
}

core::MrScanConfig sdss_config() {
  core::MrScanConfig c;
  c.params = {0.00015, 5};
  c.leaves = 256;
  c.fanout = 16;
  c.partition_nodes = 4;
  c.cluster_algo = cluster::ClusterAlgo::kTwoPass;
  c.gpu.dense_box = true;
  c.host_threads = 4;
  c.ooc.enabled = true;
  c.ooc.working_set = 8;
  c.ooc.checkpoint = true;
  return c;
}

std::vector<Workload> make_table() {
  return {
      {"twitter-16L", Dataset::kTwitter, twitter_config(16, 4)},
      {"twitter-1024L", Dataset::kTwitter, twitter_config(1024, 1)},
      {"sdss-256L-ooc", Dataset::kSdss, sdss_config()},
      {"serve-twitter-100k", Dataset::kServeTwitter, {}},
  };
}

/// Reads the labeled binary output of an out-of-core run back into
/// records, as mrscan_cli does before writing text.
std::vector<sweep::LabeledPoint> read_labeled_binary(
    const std::filesystem::path& path) {
  std::vector<sweep::LabeledPoint> records;
  io::LabeledFileReader reader(path);
  records.reserve(reader.records());
  geom::Point point;
  std::int64_t cluster = 0;
  while (reader.next(point, cluster)) {
    records.push_back(sweep::LabeledPoint{point, cluster});
  }
  return records;
}

/// Compare one run against the first run of the invocation and against
/// the reference; returns a description of the first mismatch or "".
std::string mismatch(const BatchRun& run, std::uint64_t raw,
                     const BatchRun& first, std::uint64_t first_raw,
                     const Expectation& expect) {
  if (raw != first_raw) return "output bytes differ between runs";
  if (run.sim_s != first.sim_s) return "sim_s differs between runs";
  if (expect.raw && raw != *expect.raw) {
    return "output digest " + hex64(raw) + " != reference " +
           hex64(*expect.raw);
  }
  if (expect.clusters && run.clusters != *expect.clusters) {
    return "cluster count " + std::to_string(run.clusters) +
           " != reference " + std::to_string(*expect.clusters);
  }
  if (expect.records && run.records != *expect.records) {
    return "record count " + std::to_string(run.records) + " != reference " +
           std::to_string(*expect.records);
  }
  if (expect.sim_s && run.sim_s != *expect.sim_s) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "sim_s %.17g != reference %.17g",
                  run.sim_s, *expect.sim_s);
    return buf;
  }
  return "";
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  static const std::vector<Workload> table = make_table();
  for (const Workload& w : table) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

geom::PointSet make_points(Dataset dataset, std::uint64_t seed) {
  if (dataset == Dataset::kSdss) {
    data::SdssConfig config;
    config.num_points = kBatchPoints;
    config.seed = seed;
    return data::generate_sdss(config);
  }
  data::TwitterConfig config;
  config.num_points = kTwitterPopulation;
  const geom::PointSet population = data::generate_twitter(config);
  // Selection sampling (Knuth's Algorithm S): exactly kBatchPoints
  // points, in population order.
  util::Rng rng(seed);
  geom::PointSet points;
  points.reserve(kBatchPoints);
  std::uint64_t needed = kBatchPoints;
  for (std::size_t i = 0; i < population.size() && needed > 0; ++i) {
    if (rng.next_below(population.size() - i) < needed) {
      points.push_back(population[i]);
      --needed;
    }
  }
  return points;
}

int compute_reference(const Workload& workload, std::uint64_t seed) {
  core::MrScanConfig config = workload.config;
  config.cluster_algo = cluster::ClusterAlgo::kTwoPass;
  config.host_threads = 1;
  config.ooc = {};
  // The canonical digest does not depend on the leaf count, so both
  // Twitter workloads share one cheap 16-leaf oracle.
  if (workload.dataset == Dataset::kTwitter) config.leaves = 16;
  const geom::PointSet points = make_points(workload.dataset, seed);
  const core::MrScanResult result = core::MrScan(config).run(points);
  std::printf("canonical=%s clusters=%zu records=%llu",
              hex64(canonical_digest(result.output)).c_str(),
              result.cluster_count,
              static_cast<unsigned long long>(result.output_records));
  // Simulated seconds depend on the cluster algorithm and the tree, so
  // they are a reference only when both match the workload.
  if (config.cluster_algo == workload.config.cluster_algo &&
      config.leaves == workload.config.leaves) {
    std::printf(" sim_s=%.17g", result.sim.total());
  }
  std::printf("\n");
  return 0;
}

BatchRun run_pipeline(const Workload& workload, const RunPaths& paths) {
  core::MrScanConfig config = workload.config;
  if (config.ooc.enabled) {
    std::filesystem::remove_all(paths.spool);
    config.ooc.dir = paths.spool;
  }
  const core::MrScan pipeline(config);

  BatchRun run;
  geom::PointSet points;
  core::MrScanResult result;
  const double t0 = now_s();
  points = io::read_points_binary(paths.input);
  result = pipeline.run(points);
  if (config.ooc.enabled) {
    run.output = read_labeled_binary(result.output_path);
  } else {
    run.output = std::move(result.output);
  }
  sweep::write_labeled_text(paths.output, run.output);
  run.wall_s = now_s() - t0;

  run.sim_s = result.sim.total();
  run.clusters = result.cluster_count;
  run.records = result.output_records;
  return run;
}

void run_batch(const Options& options, Outcome& outcome) {
  const Workload& workload = *options.workload;
  const RunPaths paths{options.workdir / "input.mrsc",
                       options.workdir / "output.clusters",
                       options.workdir / "spool"};

  geom::PointSet points;
  const double setup_s = median_setup_s(
      [&] { points = make_points(workload.dataset, options.seed); });
  io::write_points_binary(paths.input, points);
  points = {};

  // One pass = one attempted operation, checked against the first pass
  // of this invocation (byte identity, exact sim_s) and the reference.
  // The output file goes once checked, so its dirty pages are never
  // written back while a later pass runs.
  std::optional<BatchRun> first;
  std::uint64_t first_raw = 0;
  const auto check_pass = [&](BatchRun& run, const char* what) {
    const std::uint64_t raw = file_digest(paths.output);
    std::filesystem::remove(paths.output);
    if (!first) {
      const std::uint64_t canonical =
          canonical_digest(std::exchange(run.output, {}));
      std::printf("observed: canonical=%s raw=%s clusters=%llu records=%llu "
                  "sim_s=%.17g\n",
                  hex64(canonical).c_str(), hex64(raw).c_str(),
                  static_cast<unsigned long long>(run.clusters),
                  static_cast<unsigned long long>(run.records), run.sim_s);
      outcome.check(!options.expect.canonical ||
                        canonical == *options.expect.canonical,
                    std::string(what) + ": canonical digest " +
                        hex64(canonical) + " != reference");
      first = run;
      first_raw = raw;
    }
    const std::string bad =
        mismatch(run, raw, *first, first_raw, options.expect);
    outcome.check(bad.empty(), std::string(what) + ": " + bad);
  };

  std::vector<double> walls;
  std::vector<double> traced_walls;
  std::vector<double> peaks;
  std::vector<std::map<std::string, Metric>> layers;
  SpanRecorder spans;
  const double deadline = now_s() + options.seconds;
  // One untimed warm-up pass (checked like the others): the first pass of
  // a process pays for thread start-up and first-touch page faults.
  {
    BatchRun warm = run_pipeline(workload, paths);
    check_pass(warm, "warm-up pass");
  }
  // At least two passes (one untraced/traced pair when tracing); then
  // another only while it is expected to end before the deadline.
  const std::size_t min_passes = options.trace ? 1 : 2;
  while (true) {
    const std::size_t done = walls.size();
    if (done >= min_passes) {
      const double pass = median(walls) +
                          (options.trace ? median(traced_walls) : 0.0);
      if (now_s() + pass > deadline) break;
    }
    reset_peak_rss();
    BatchRun run = run_pipeline(workload, paths);
    peaks.push_back(peak_rss_mb());
    walls.push_back(run.wall_s);
    check_pass(run, "pass");
    if (options.trace) {
      BatchRun traced = run_staged(workload, paths, spans, done);
      traced_walls.push_back(traced.wall_s);
      layers.push_back(traced.layers);
      check_pass(traced, "traced pass");
    }
  }
  std::filesystem::remove_all(paths.spool);
  std::printf("wall_s: lower quartile of %zu passes (min %.4f, median %.4f, "
              "max %.4f)\n",
              walls.size(), percentile(walls, 0), median(walls),
              percentile(walls, 100));

  if (!options.trace) {
    // Other tenants of a shared host only ever lengthen a pass, and they
    // do so in bursts of seconds: the lower quartile tracks the program's
    // own cost where the median moves with the neighbours' load.
    outcome.set("wall_s", percentile(walls, 25), "s");
    outcome.set("sim_s", first->sim_s, "s");
    outcome.set("peak_rss_mb", median(peaks), "MB");
    outcome.set("setup_s", setup_s, "s");
    return;
  }
  // Per-layer metrics: the median over traced passes of each.
  for (const auto& [name, metric] : layers.front()) {
    std::vector<double> values;
    for (const auto& l : layers) values.push_back(l.at(name).value);
    outcome.set(name, median(values), metric.unit);
  }
  outcome.set("trace.overhead", median(traced_walls) / median(walls), "ratio");
  if (!options.trace_out.empty()) {
    std::ofstream out(options.trace_out);
    out << spans.chrome_json();
  }
}

}  // namespace e2e
