// Micro-benchmarks: pipeline building blocks (dense box detection,
// partition planning, leaf summaries, merging, packet serialisation, the
// text output writer) and the host-threaded cluster phase (wall-clock
// speedup vs host_threads=1).
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/experiment.hpp"
#include "core/mrscan.hpp"
#include "data/sdss.hpp"
#include "data/twitter.hpp"
#include "dbscan/sequential.hpp"
#include "geometry/bbox.hpp"
#include "gpu/dense_box.hpp"
#include "index/cell_histogram.hpp"
#include "merge/merger.hpp"
#include "merge/summary.hpp"
#include "partition/partitioner.hpp"
#include "sweep/sweep.hpp"

namespace {

using namespace mrscan;

geom::PointSet bench_points(std::uint64_t n) {
  data::TwitterConfig config;
  config.num_points = n;
  return data::generate_twitter(config);
}

void BM_DenseBoxDetect(benchmark::State& state) {
  const auto points = bench_points(100000);
  const double eps = 0.1;
  index::KDTree tree(points,
                     index::KDTreeConfig{64, gpu::dense_box_side(eps)});
  for (auto _ : state) {
    auto dense = gpu::detect_dense_boxes(tree, eps, 40);
    benchmark::DoNotOptimize(dense.covered_points);
  }
  state.SetItemsProcessed(state.iterations() * tree.leaves().size());
}
BENCHMARK(BM_DenseBoxDetect);

void BM_PartitionPlanning(benchmark::State& state) {
  const auto points = bench_points(200000);
  const geom::GridGeometry geometry{-125.0, 24.0, 0.1};
  const index::CellHistogram hist(geometry, points);
  for (auto _ : state) {
    auto plan = partition::plan_partitions(
        hist, geometry,
        partition::PartitionerConfig{
            static_cast<std::size_t>(state.range(0)), 40, true, 1.075});
    benchmark::DoNotOptimize(plan.part_count());
  }
  state.SetLabel(std::to_string(hist.cell_count()) + " cells");
}
BENCHMARK(BM_PartitionPlanning)->Arg(32)->Arg(256)->Arg(1024);

void BM_PartitionPlanningSdss(benchmark::State& state) {
  // SDSS at the paper's Eps: a few cells per grid column, so planning
  // time is mostly ring-neighbour lookups rather than packing.
  data::SdssConfig config;
  config.num_points = 200000;
  const auto points = data::generate_sdss(config);
  const geom::BBox box = geom::bbox_of(points);
  const geom::GridGeometry geometry{box.min_x, box.min_y, 0.00015};
  const index::CellHistogram hist(geometry, points);
  for (auto _ : state) {
    auto plan = partition::plan_partitions(
        hist, geometry, partition::PartitionerConfig{256, 5, true, 1.075});
    benchmark::DoNotOptimize(plan.part_count());
  }
  state.SetLabel(std::to_string(hist.cell_count()) + " cells");
}
BENCHMARK(BM_PartitionPlanningSdss);

struct SummaryFixtureData {
  geom::PointSet points;
  dbscan::Labeling labels;
  std::vector<std::uint64_t> owned, shadow;
  geom::GridGeometry geometry{-125.0, 24.0, 0.1};
};

SummaryFixtureData make_summary_data() {
  SummaryFixtureData data;
  data.points = bench_points(30000);
  data.labels =
      dbscan::dbscan_sequential(data.points, dbscan::DbscanParams{0.1, 40});
  const index::CellHistogram hist(data.geometry, data.points);
  // Split cells half owned / half shadow to exercise the boundary logic.
  for (std::size_t i = 0; i < hist.entries().size(); ++i) {
    (i % 2 == 0 ? data.owned : data.shadow)
        .push_back(hist.entries()[i].code);
  }
  return data;
}

void BM_BuildLeafSummary(benchmark::State& state) {
  const auto data = make_summary_data();
  merge::LeafSummaryInput input;
  input.points = data.points;
  input.owned_count = data.points.size();
  input.labels = &data.labels;
  input.geometry = data.geometry;
  input.owned_cells = data.owned;
  input.shadow_cells = data.shadow;
  for (auto _ : state) {
    auto summary = merge::build_leaf_summary(input);
    benchmark::DoNotOptimize(summary.clusters.size());
  }
}
BENCHMARK(BM_BuildLeafSummary);

void BM_MergeSummaries(benchmark::State& state) {
  const auto data = make_summary_data();
  merge::LeafSummaryInput input;
  input.points = data.points;
  input.owned_count = data.points.size();
  input.labels = &data.labels;
  input.geometry = data.geometry;
  input.owned_cells = data.owned;
  input.shadow_cells = data.shadow;
  const auto summary = merge::build_leaf_summary(input);
  std::vector<merge::MergeSummary> children(
      static_cast<std::size_t>(state.range(0)), summary);
  for (auto _ : state) {
    auto merged = merge::merge_summaries(children, data.geometry, 0.1);
    benchmark::DoNotOptimize(merged.merged.clusters.size());
  }
}
BENCHMARK(BM_MergeSummaries)->Arg(2)->Arg(8);

void BM_SummaryPacketRoundTrip(benchmark::State& state) {
  const auto data = make_summary_data();
  merge::LeafSummaryInput input;
  input.points = data.points;
  input.owned_count = data.points.size();
  input.labels = &data.labels;
  input.geometry = data.geometry;
  input.owned_cells = data.owned;
  input.shadow_cells = data.shadow;
  const auto summary = merge::build_leaf_summary(input);
  for (auto _ : state) {
    auto packet = summary.to_packet();
    auto back = merge::MergeSummary::from_packet(packet);
    benchmark::DoNotOptimize(back.clusters.size());
  }
  state.SetBytesProcessed(state.iterations() *
                          summary.to_packet().size_bytes());
}
BENCHMARK(BM_SummaryPacketRoundTrip);

/// Seconds per BM_WriteLabeledText/1 iteration, exported with the
/// 1-thread cluster-phase snapshot that runs after it; negative when it
/// did not run.
double g_write_labeled_text_s = -1.0;

// The sweep's text writer (the io.write_text layer of a batch run) on 1M
// Twitter-like records into a temp file, with the argument's writer
// threads.
void BM_WriteLabeledText(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const auto points = bench_points(1'000'000);
  std::vector<sweep::LabeledPoint> records;
  records.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    records.push_back({points[i], static_cast<std::int64_t>(i % 50'000)});
  }
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("mrscan_bench_text_" + std::to_string(::getpid()) + ".txt");
  double total_s = 0.0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    sweep::write_labeled_text(path, records, threads);
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - start;
    state.SetIterationTime(took.count());
    total_s += took.count();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(
                              std::filesystem::file_size(path)));
  std::filesystem::remove(path);
  if (threads == 1) {
    g_write_labeled_text_s =
        total_s / static_cast<double>(state.iterations());
  }
}
BENCHMARK(BM_WriteLabeledText)
    ->Arg(1)
    ->Arg(4)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// Cluster-phase wall clock at 8 leaves across host worker counts. The
// reported time IS the cluster phase (manual timing from the run's
// "wall.cluster" gauge), so the Arg(1) / Arg(4) ratio is the host-parallel speedup
// the ISSUE-3 acceptance bar asks for (>= 2x at 4 workers).
void BM_ClusterPhaseHostThreads(benchmark::State& state) {
  // Fixture size is tunable so CI's bench-smoke can run a small config
  // while local perf runs keep the 60k default.
  const auto points =
      bench_points(bench::env_u64("MRSCAN_BENCH_MICRO_POINTS", 60000));
  core::MrScanConfig config;
  config.params = {0.1, 40};
  config.leaves = 8;
  config.fanout = 4;
  config.partition_nodes = 2;
  config.host_threads = static_cast<std::size_t>(state.range(0));
  const core::MrScan pipeline(config);
  std::size_t clusters = 0;
  double cluster_phase_s = 0.0;
  std::shared_ptr<obs::Recorder> recorder;
  for (auto _ : state) {
    const auto result = pipeline.run(points);
    cluster_phase_s = result.obs->wall_seconds("cluster");
    state.SetIterationTime(cluster_phase_s);
    clusters = result.cluster_count;
    recorder = result.obs;
    benchmark::DoNotOptimize(clusters);
  }
  state.SetLabel("8 leaves, " + std::to_string(state.range(0)) +
                 " host thread(s), " + std::to_string(clusters) +
                 " clusters");
  // Export the last run's full pipeline metrics plus the bench.* gauges
  // for the CI bench-smoke validator.
  if (recorder) {
    obs::Registry& reg = recorder->metrics();
    reg.set("bench.cluster_phase_s", cluster_phase_s);
    reg.add("bench.host_threads",
            static_cast<std::uint64_t>(state.range(0)));
    reg.add("bench.points", points.size());
    if (state.range(0) == 1 && g_write_labeled_text_s >= 0.0) {
      reg.set("bench.write_labeled_text_s", g_write_labeled_text_s);
    }
    bench::write_bench_snapshot(
        "micro_pipeline_" + std::to_string(state.range(0)) + "t", reg);
  }
}
BENCHMARK(BM_ClusterPhaseHostThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// The same cluster-phase fixture on the cell-graph path (DESIGN §12):
// the head-to-head against BM_ClusterPhaseHostThreads at equal host
// threads is the tentpole's speedup claim, with identical output
// (enforced by the differential battery, sampled here per run).
void BM_ClusterPhaseCellGraph(benchmark::State& state) {
  const auto points =
      bench_points(bench::env_u64("MRSCAN_BENCH_MICRO_POINTS", 60000));
  core::MrScanConfig config;
  config.params = {0.1, 40};
  config.leaves = 8;
  config.fanout = 4;
  config.partition_nodes = 2;
  config.host_threads = static_cast<std::size_t>(state.range(0));
  config.cluster_algo = cluster::ClusterAlgo::kCellGraph;
  const core::MrScan pipeline(config);
  std::size_t clusters = 0;
  double cluster_phase_s = 0.0;
  std::shared_ptr<obs::Recorder> recorder;
  for (auto _ : state) {
    const auto result = pipeline.run(points);
    cluster_phase_s = result.obs->wall_seconds("cluster");
    state.SetIterationTime(cluster_phase_s);
    clusters = result.cluster_count;
    recorder = result.obs;
    benchmark::DoNotOptimize(clusters);
  }
  state.SetLabel("8 leaves, " + std::to_string(state.range(0)) +
                 " host thread(s), cell-graph, " +
                 std::to_string(clusters) + " clusters");
  if (recorder) {
    obs::Registry& reg = recorder->metrics();
    reg.set("bench.cluster_phase_s", cluster_phase_s);
    reg.add("bench.host_threads",
            static_cast<std::uint64_t>(state.range(0)));
    reg.add("bench.points", points.size());
    reg.add("bench.cluster_algo", 1);  // 0 = two-pass, 1 = cell-graph
    bench::write_bench_snapshot(
        "micro_pipeline_cellgraph_" + std::to_string(state.range(0)) + "t",
        reg);
  }
}
BENCHMARK(BM_ClusterPhaseCellGraph)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
