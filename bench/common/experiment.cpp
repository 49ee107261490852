#include "common/experiment.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "obs/export.hpp"
#include "partition/distributed.hpp"
#include "util/assert.hpp"

namespace mrscan::bench {

std::vector<WeakConfig> table1_configs() {
  // "# of points / # of MRNet internal processes / # of leaves /
  //  # of partition nodes" — Table 1 verbatim.
  return {
      {1'600'000, 0, 2, 2},        {6'400'000, 0, 8, 4},
      {25'600'000, 0, 32, 8},      {102'400'000, 0, 128, 16},
      {409'600'000, 2, 512, 32},   {1'638'400'000, 8, 2048, 64},
      {3'276'800'000, 16, 4096, 96}, {6'553'600'000, 32, 8192, 128},
  };
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  return std::strtoull(v, nullptr, 10);
}

BenchScale BenchScale::from_env() {
  BenchScale scale;
  scale.points_per_leaf =
      env_u64("MRSCAN_BENCH_POINTS_PER_LEAF", scale.points_per_leaf);
  scale.max_leaves = static_cast<std::size_t>(
      env_u64("MRSCAN_BENCH_MAX_LEAVES", scale.max_leaves));
  scale.quality_points =
      env_u64("MRSCAN_BENCH_QUALITY_POINTS", scale.quality_points);
  scale.host_threads = static_cast<std::size_t>(
      env_u64("MRSCAN_BENCH_HOST_THREADS", scale.host_threads));
  return scale;
}

namespace {

/// Process-wide count of bench rows dropped by the MRSCAN_BENCH_MAX_LEAVES
/// clamp. Exported with every bench snapshot so a capped run is
/// machine-distinguishable from a full-scale one.
std::uint64_t g_leaves_clamped_rows = 0;

geom::PointSet replica_points(Dataset dataset, std::uint64_t count,
                              std::uint64_t seed) {
  if (dataset == Dataset::kTwitter) {
    data::TwitterConfig config;
    config.num_points = count;
    config.seed = seed;
    return data::generate_twitter(config);
  }
  data::SdssConfig config;
  config.num_points = count;
  config.seed = seed;
  return data::generate_sdss(config);
}

/// Full-scale cell histogram for the model-layer partition run.
index::CellHistogram paper_scale_histogram(Dataset dataset,
                                           std::uint64_t paper_points,
                                           double eps,
                                           geom::GridGeometry* geometry) {
  // Sample at most 500k points to estimate the spatial distribution, then
  // scale counts to the virtual size (the paper generated its large
  // datasets the same way, §4.1).
  const std::uint64_t sample = std::min<std::uint64_t>(paper_points, 500'000);
  if (dataset == Dataset::kTwitter) {
    data::TwitterConfig config;
    config.num_points = paper_points;
    *geometry =
        geom::GridGeometry{config.window.min_x, config.window.min_y, eps};
    return data::twitter_histogram(config, eps, sample);
  }
  data::SdssConfig config;
  config.num_points = paper_points;
  *geometry =
      geom::GridGeometry{config.window.min_x, config.window.min_y, eps};
  return data::sdss_histogram(config, eps, sample);
}

/// Write one bench cell's metrics snapshot. The replica run's registry
/// (host wall seconds, fault counters, network stats) is extended with
/// the paper-scale "bench.*" numbers and exported as flat JSON.
void write_bench_metrics(const std::string& bench_name, const Row& row,
                         obs::Recorder& recorder) {
  obs::Registry& reg = recorder.metrics();
  reg.add("bench.paper_points", row.paper_points);
  reg.add("bench.replica_points", row.replica_points);
  reg.add("bench.leaves", row.leaves);
  reg.add("bench.min_pts", row.paper_min_pts);
  reg.set("bench.total_s", row.total_s);
  reg.set("bench.startup_s", row.startup_s);
  reg.set("bench.partition_s", row.partition_s);
  reg.set("bench.cluster_merge_s", row.cluster_merge_s);
  reg.set("bench.sweep_s", row.sweep_s);
  reg.set("bench.gpu_dbscan_s", row.gpu_dbscan_s);
  reg.add("bench.leaves_clamped", g_leaves_clamped_rows);

  const std::string tag = bench_name + "_" +
                          std::to_string(row.paper_points) + "pts_" +
                          std::to_string(row.leaves) + "L_m" +
                          std::to_string(row.paper_min_pts);
  write_bench_snapshot(tag, reg);
}

}  // namespace

bool skip_clamped_row(const WeakConfig& config, const BenchScale& scale) {
  if (config.leaves <= scale.max_leaves) return false;
  ++g_leaves_clamped_rows;
  std::printf(
      "  [clamped] skipping %llu points / %zu leaves: above "
      "MRSCAN_BENCH_MAX_LEAVES=%zu (raise it for full scale)\n",
      static_cast<unsigned long long>(config.points), config.leaves,
      scale.max_leaves);
  return true;
}

std::uint64_t leaves_clamped_rows() { return g_leaves_clamped_rows; }

bool write_bench_snapshot(const std::string& tag, const obs::Registry& reg) {
  const char* dir_env = std::getenv("MRSCAN_BENCH_METRICS_DIR");
  const std::string dir = (dir_env && *dir_env) ? dir_env : ".";
  if (dir == "off" || dir == "-") return false;

  const std::string path = dir + "/BENCH_" + tag + ".json";
  try {
    obs::write_text_file(path, obs::metrics_json(reg.snapshot()));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench metrics export failed: %s\n", e.what());
  }
  return true;
}

Row run_config(const WeakConfig& config, const RunOptions& options,
               const BenchScale& scale,
               std::optional<std::uint64_t> replica_total) {
  Row row;
  row.paper_points = config.points;
  row.leaves = config.leaves;
  row.paper_min_pts = options.paper_min_pts;
  row.replica_points =
      replica_total.value_or(scale.points_per_leaf * config.leaves);
  // Time-extrapolation factor: total work reduction of the replica.
  const double sigma = static_cast<double>(config.points) /
                       static_cast<double>(row.replica_points);
  // Density-preserving Eps: by default matches the replica's true density
  // reduction; overridable (see RunOptions::sigma_density).
  const double sigma_density = options.sigma_density.value_or(sigma);
  row.replica_eps = options.eps * std::sqrt(sigma_density);

  const sim::TitanParams titan;

  // ---- Model layer: partition phase at full paper scale. ----
  {
    geom::GridGeometry geometry;
    const index::CellHistogram hist = paper_scale_histogram(
        options.dataset, config.points, options.eps, &geometry);
    partition::DistributedPartitionerConfig part_config;
    part_config.eps = options.eps;
    part_config.partition_nodes = config.partition_nodes;
    part_config.planner = partition::PartitionerConfig{
        config.leaves, options.paper_min_pts, true, 1.075};
    const auto phase = partition::run_distributed_partitioner_model(
        hist, geometry, config.points, part_config, titan);
    row.partition_s = phase.sim_seconds;
  }

  // ---- Replica layer: real pipeline on the density-preserving replica. ----
  std::shared_ptr<obs::Recorder> recorder;
  {
    core::MrScanConfig mr;
    mr.params = {row.replica_eps, options.paper_min_pts};
    mr.leaves = config.leaves;
    mr.fanout = options.fanout;
    mr.partition_nodes = config.partition_nodes;
    mr.gpu.dense_box = options.dense_box;
    mr.shadow_rep_threshold = options.shadow_rep_threshold;
    mr.host_threads = scale.host_threads;
    mr.titan = titan;

    const geom::PointSet points =
        replica_points(options.dataset, row.replica_points, /*seed=*/99);
    const core::MrScan pipeline(mr);
    const auto result = pipeline.run(points);

    row.startup_s = result.sim.startup;
    row.cluster_merge_s = result.sim.cluster_merge * sigma;
    row.sweep_s = result.sim.sweep * sigma;
    row.gpu_dbscan_s = result.gpu_dbscan_seconds * sigma;
    row.clusters = result.cluster_count;
    for (const auto& stats : result.leaf_stats) {
      row.dense_boxes += stats.dense_boxes;
      row.dense_points += stats.dense_points;
    }
    recorder = result.obs;
  }

  row.total_s =
      row.startup_s + row.partition_s + row.cluster_merge_s + row.sweep_s;
  if (!options.bench_name.empty() && recorder) {
    write_bench_metrics(options.bench_name, row, *recorder);
  }
  return row;
}

void print_header(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

void print_row_header() {
  std::printf(
      "%14s %7s %8s %12s | %10s %10s %12s %10s %12s | %9s %11s\n", "points",
      "leaves", "MinPts", "replicaPts", "total_s", "partition", "clust+merge",
      "sweep", "gpu_dbscan", "clusters", "densePts");
}

void print_row(const Row& row) {
  std::printf(
      "%14llu %7zu %8zu %12llu | %10.2f %10.2f %12.2f %10.2f %12.3f | %9zu "
      "%11llu\n",
      static_cast<unsigned long long>(row.paper_points), row.leaves,
      row.paper_min_pts,
      static_cast<unsigned long long>(row.replica_points), row.total_s,
      row.partition_s, row.cluster_merge_s, row.sweep_s, row.gpu_dbscan_s,
      row.clusters, static_cast<unsigned long long>(row.dense_points));
}

}  // namespace mrscan::bench
