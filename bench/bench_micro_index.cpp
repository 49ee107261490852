// Micro-benchmarks: spatial index substrate (KD-tree, BVH, grid,
// histogram) and the partition plan built over it.
//
// The *Scratch / *Many variants measure the allocation-free query engine
// (QueryScratch + SoA leaf mirror, DESIGN §10) against the legacy
// out-vector overloads kept for comparison. After the run, every
// benchmark's real time is exported as a "bench.micro_index.<name>.ns"
// gauge to BENCH_micro_index.json under MRSCAN_BENCH_METRICS_DIR, so CI
// can validate the numbers with tools/obs/check_obs_json.py --bench. A
// benchmark's user counters that are not rates (BM_PlanPartitions'
// parts and rebalance moves) are exported as
// "bench.micro_index.<name>.<counter>" counters, which the trajectory
// gate compares exactly.
#include <benchmark/benchmark.h>

#include <numeric>
#include <string>
#include <vector>

#include "common/experiment.hpp"
#include "data/sdss.hpp"
#include "data/twitter.hpp"
#include "geometry/bbox.hpp"
#include "index/bvh.hpp"
#include "index/cell_histogram.hpp"
#include "index/grid.hpp"
#include "index/kdtree.hpp"
#include "index/query_scratch.hpp"
#include "obs/registry.hpp"
#include "partition/partitioner.hpp"
#include "util/rng.hpp"

namespace {

using namespace mrscan;

geom::PointSet bench_points(std::uint64_t n) {
  data::TwitterConfig config;
  config.num_points = n;
  return data::generate_twitter(config);
}

void BM_KDTreeBuild(benchmark::State& state) {
  const auto points = bench_points(state.range(0));
  for (auto _ : state) {
    index::KDTree tree(points, index::KDTreeConfig{64, 0.0});
    benchmark::DoNotOptimize(tree.leaves().data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KDTreeBuild)->Arg(10000)->Arg(100000);

void BM_KDTreeRadiusQuery(benchmark::State& state) {
  const auto points = bench_points(100000);
  index::KDTree tree(points, index::KDTreeConfig{64, 0.0});
  util::Rng rng(1);
  std::vector<std::uint32_t> out;
  std::size_t cursor = 0;
  for (auto _ : state) {
    tree.radius_query(points[cursor % points.size()], 0.1, out);
    benchmark::DoNotOptimize(out.data());
    ++cursor;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KDTreeRadiusQuery);

void BM_KDTreeRadiusQueryScratch(benchmark::State& state) {
  const auto points = bench_points(100000);
  index::KDTree tree(points, index::KDTreeConfig{64, 0.0});
  index::QueryScratch scratch;
  std::size_t cursor = 0;
  for (auto _ : state) {
    const auto neighbors =
        tree.radius_query(points[cursor % points.size()], 0.1, scratch);
    benchmark::DoNotOptimize(neighbors.data());
    ++cursor;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KDTreeRadiusQueryScratch);

void BM_KDTreeRadiusQueryMany(benchmark::State& state) {
  const auto points = bench_points(100000);
  index::KDTree tree(points, index::KDTreeConfig{64, 0.0});
  index::QueryScratch scratch;
  std::vector<std::uint32_t> queries(static_cast<std::size_t>(state.range(0)));
  std::iota(queries.begin(), queries.end(), std::uint32_t{0});
  std::uint64_t checksum = 0;
  for (auto _ : state) {
    tree.radius_query_many(
        queries, 0.1, scratch,
        [&](std::size_t, std::span<const std::uint32_t> neighbors,
            std::uint64_t ops) { checksum += neighbors.size() + ops; });
  }
  benchmark::DoNotOptimize(checksum);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KDTreeRadiusQueryMany)->Arg(1024);

void BM_KDTreeCountEarlyExit(benchmark::State& state) {
  const auto points = bench_points(100000);
  index::KDTree tree(points, index::KDTreeConfig{64, 0.0});
  std::size_t cursor = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.count_in_radius(points[cursor % points.size()], 0.1,
                             state.range(0)));
    ++cursor;
  }
}
BENCHMARK(BM_KDTreeCountEarlyExit)->Arg(4)->Arg(40)->Arg(400);

void BM_KDTreeCountEarlyExitScratch(benchmark::State& state) {
  const auto points = bench_points(100000);
  index::KDTree tree(points, index::KDTreeConfig{64, 0.0});
  index::QueryScratch scratch;
  std::size_t cursor = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.count_in_radius(points[cursor % points.size()], 0.1, scratch,
                             state.range(0)));
    ++cursor;
  }
}
BENCHMARK(BM_KDTreeCountEarlyExitScratch)->Arg(4)->Arg(40)->Arg(400);

void BM_BVHBuild(benchmark::State& state) {
  const auto points = bench_points(state.range(0));
  for (auto _ : state) {
    index::BVH tree(points, index::BVHConfig{64, 0.0});
    benchmark::DoNotOptimize(tree.leaves().data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BVHBuild)->Arg(10000)->Arg(100000);

void BM_BVHRadiusQueryScratch(benchmark::State& state) {
  const auto points = bench_points(100000);
  index::BVH tree(points, index::BVHConfig{64, 0.0});
  index::QueryScratch scratch;
  std::size_t cursor = 0;
  for (auto _ : state) {
    const auto neighbors =
        tree.radius_query(points[cursor % points.size()], 0.1, scratch);
    benchmark::DoNotOptimize(neighbors.data());
    ++cursor;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BVHRadiusQueryScratch);

void BM_BVHRadiusQueryMany(benchmark::State& state) {
  const auto points = bench_points(100000);
  index::BVH tree(points, index::BVHConfig{64, 0.0});
  index::QueryScratch scratch;
  std::vector<std::uint32_t> queries(static_cast<std::size_t>(state.range(0)));
  std::iota(queries.begin(), queries.end(), std::uint32_t{0});
  std::uint64_t checksum = 0;
  for (auto _ : state) {
    tree.radius_query_many(
        queries, 0.1, scratch,
        [&](std::size_t, std::span<const std::uint32_t> neighbors,
            std::uint64_t ops) { checksum += neighbors.size() + ops; });
  }
  benchmark::DoNotOptimize(checksum);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BVHRadiusQueryMany)->Arg(1024);

void BM_BVHFusedForEachMany(benchmark::State& state) {
  // The fused-traversal path the BVH engine feeds pass 2 with: callbacks
  // fire inside the walk, no neighbor list is materialized (DESIGN §13).
  const auto points = bench_points(100000);
  index::BVH tree(points, index::BVHConfig{64, 0.0});
  index::QueryScratch scratch;
  std::vector<std::uint32_t> queries(static_cast<std::size_t>(state.range(0)));
  std::iota(queries.begin(), queries.end(), std::uint32_t{0});
  std::uint64_t checksum = 0;
  for (auto _ : state) {
    tree.for_each_in_radius_many(
        queries, 0.1, scratch,
        [&](std::size_t, std::uint32_t idx) { checksum += idx; },
        [&](std::size_t, index::TraversalCost cost) {
          checksum += cost.total();
        });
  }
  benchmark::DoNotOptimize(checksum);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BVHFusedForEachMany)->Arg(1024);

void BM_BVHCountEarlyExitScratch(benchmark::State& state) {
  const auto points = bench_points(100000);
  index::BVH tree(points, index::BVHConfig{64, 0.0});
  index::QueryScratch scratch;
  std::size_t cursor = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.count_in_radius(points[cursor % points.size()], 0.1, scratch,
                             state.range(0)));
    ++cursor;
  }
}
BENCHMARK(BM_BVHCountEarlyExitScratch)->Arg(4)->Arg(40)->Arg(400);

void BM_GridBuild(benchmark::State& state) {
  const auto points = bench_points(state.range(0));
  for (auto _ : state) {
    index::Grid grid(geom::GridGeometry{-125.0, 24.0, 0.1}, points);
    benchmark::DoNotOptimize(grid.cell_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GridBuild)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_HistogramMerge(benchmark::State& state) {
  const geom::GridGeometry geometry{-125.0, 24.0, 0.1};
  const index::CellHistogram a(geometry, bench_points(50000));
  const index::CellHistogram b(geometry, bench_points(50000));
  for (auto _ : state) {
    index::CellHistogram merged = a;
    merged.merge(b);
    benchmark::DoNotOptimize(merged.total_points());
  }
}
BENCHMARK(BM_HistogramMerge);

/// plan_partitions over the cell histogram of 1M points, as a batch run
/// plans it: the grid anchored at the data's lower-left corner, Eps-sized
/// cells, one part per clustering leaf.
void BM_PlanPartitions(benchmark::State& state, bool sdss) {
  geom::PointSet points;
  double eps = 0.1;
  partition::PartitionerConfig config{16, 40, true, 1.075};
  if (sdss) {
    data::SdssConfig sdss_config;
    sdss_config.num_points = 1'000'000;
    points = data::generate_sdss(sdss_config);
    eps = 0.00015;
    config = partition::PartitionerConfig{256, 5, true, 1.075};
  } else {
    points = bench_points(1'000'000);
  }
  const geom::BBox box = geom::bbox_of(points);
  const geom::GridGeometry geometry{box.min_x, box.min_y, eps};
  const index::CellHistogram hist(geometry, points);
  points = {};
  partition::PartitionPlan plan;
  for (auto _ : state) {
    plan = partition::plan_partitions(hist, geometry, config);
    benchmark::DoNotOptimize(plan.parts.data());
  }
  state.counters["parts"] = static_cast<double>(plan.part_count());
  state.counters["rebalance_moves"] =
      static_cast<double>(plan.rebalance_moves);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(hist.cell_count()));
}
BENCHMARK_CAPTURE(BM_PlanPartitions, twitter_16, false);
BENCHMARK_CAPTURE(BM_PlanPartitions, sdss_256, true);

/// Reporter that mirrors each benchmark's real time into an obs registry,
/// exported as BENCH_micro_index.json for the CI bench-smoke validator.
class MetricsReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      std::string name = run.benchmark_name();
      for (char& ch : name) {
        if (ch == '/' || ch == ':') ch = '_';
      }
      registry_.set("bench.micro_index." + name + ".ns",
                    run.GetAdjustedRealTime());
      for (const auto& [counter, value] : run.counters) {
        if ((value.flags & benchmark::Counter::kIsRate) != 0) continue;
        registry_.add("bench.micro_index." + name + "." + counter,
                      static_cast<std::uint64_t>(value.value));
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const mrscan::obs::Registry& registry() const { return registry_; }

 private:
  mrscan::obs::Registry registry_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  MetricsReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  mrscan::bench::write_bench_snapshot("micro_index", reporter.registry());
  return 0;
}
