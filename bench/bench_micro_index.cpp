// Micro-benchmarks: spatial index substrate (KD-tree, BVH, grid,
// histogram).
//
// The *Scratch / *Many variants measure the allocation-free query engine
// (QueryScratch + SoA leaf mirror, DESIGN §10) against the legacy
// out-vector overloads kept for comparison. After the run, every
// benchmark's real time is exported as a "bench.micro_index.<name>.ns"
// gauge to BENCH_micro_index.json under MRSCAN_BENCH_METRICS_DIR, so CI
// can validate the numbers with tools/obs/check_obs_json.py --bench.
#include <benchmark/benchmark.h>

#include <numeric>
#include <string>
#include <vector>

#include "common/experiment.hpp"
#include "data/twitter.hpp"
#include "index/bvh.hpp"
#include "index/cell_histogram.hpp"
#include "index/grid.hpp"
#include "index/kdtree.hpp"
#include "index/query_scratch.hpp"
#include "obs/registry.hpp"
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
