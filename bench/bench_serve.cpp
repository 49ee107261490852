// bench_serve: epoch latency of the long-lived clustering service
// (serve::ClusterService, DESIGN §14).
//
// Two sweeps over seeded Twitter mutation streams
// (data::generate_mutation_stream — the same workload the differential
// battery replays):
//   * BM_ServeEpoch: one stream driven with an epoch every 1 / 8 / 64 /
//     256 mutations. Small batches measure per-epoch fixed cost; large
//     batches measure how the dirty-region recompute amortizes. Exports
//     "bench.serve.batch<N>.*" gauges (mean epoch wall ms, mean
//     re-clustered points per epoch, epochs run, live points) — the
//     recluster gauge staying well below the live point count at small
//     batches is the incrementality claim in exportable form.
//   * BM_ServeLive: epochs of 64 mutations after bootstrapping 10k and
//     100k live points. Exports "bench.serve.live<N>.*" — the epoch cost
//     against live-set size, which stays flat while the epoch's work
//     follows its dirty region.
// Both land in BENCH_serve_epoch.json for the CI bench-smoke validator.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>

#include "common/experiment.hpp"
#include "data/stream.hpp"
#include "obs/names.hpp"
#include "obs/registry.hpp"
#include "serve/service.hpp"

namespace {

using namespace mrscan;

// Gauges accumulated across all benchmarks, exported once from main().
obs::Registry g_registry;

data::MutationStream make_stream(std::uint64_t initial_points) {
  data::StreamConfig config;
  config.distribution = data::StreamDistribution::kTwitter;
  config.initial_points = initial_points;
  config.mutations = bench::env_u64("MRSCAN_BENCH_SERVE_MUTATIONS", 512);
  config.remove_fraction = 0.35;
  return data::generate_mutation_stream(config);
}

const data::MutationStream& batch_stream() {
  static const data::MutationStream stream =
      make_stream(bench::env_u64("MRSCAN_BENCH_SERVE_INITIAL", 20000));
  return stream;
}

serve::ServeConfig serve_config() {
  serve::ServeConfig config;
  config.params = {0.05, 5};
  config.host_threads = static_cast<std::size_t>(
      bench::env_u64("MRSCAN_BENCH_HOST_THREADS", 1));
  return config;
}

struct EpochTotals {
  std::uint64_t epochs = 0;
  std::uint64_t recluster = 0;
  std::uint64_t live = 0;
  double wall_seconds = 0.0;
};

/// Each iteration bootstraps a fresh service (untimed: that is the batch
/// pipeline's cost), then replays the stream with an epoch every `batch`
/// mutations.
EpochTotals replay(benchmark::State& state,
                   const data::MutationStream& stream, std::size_t batch) {
  EpochTotals totals;
  for (auto _ : state) {
    state.PauseTiming();
    serve::ClusterService service(serve_config());
    service.bootstrap(stream.initial);
    state.ResumeTiming();

    std::size_t in_batch = 0;
    auto run_epoch = [&] {
      const serve::EpochResult r = service.advance_epoch();
      totals.wall_seconds += r.stats.wall_seconds;
      totals.recluster += r.stats.recluster_points;
      ++totals.epochs;
      in_batch = 0;
    };
    for (const auto& m : stream.mutations) {
      if (m.kind == data::Mutation::Kind::kInsert) {
        service.insert(m.point);
      } else {
        service.remove(m.point.id);
      }
      if (++in_batch == batch) run_epoch();
    }
    if (in_batch > 0) run_epoch();
    totals.live = service.live_points();
    benchmark::DoNotOptimize(totals.live);
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(stream.mutations.size()));
  state.counters["live"] = static_cast<double>(totals.live);
  return totals;
}

void export_gauges(const std::string& series, const EpochTotals& totals) {
  auto set_gauge = [&](const std::string& suffix, double value) {
    g_registry.set(
        std::string(obs::names::kBenchServePrefix) + series + "." + suffix,
        value);
  };
  const double n =
      totals.epochs > 0 ? static_cast<double>(totals.epochs) : 1.0;
  set_gauge("epoch_ms", 1000.0 * totals.wall_seconds / n);
  set_gauge("recluster_points_per_epoch",
            static_cast<double>(totals.recluster) / n);
  set_gauge("epochs", static_cast<double>(totals.epochs));
  set_gauge("live_points", static_cast<double>(totals.live));
}

void BM_ServeEpoch(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  export_gauges("batch" + std::to_string(batch),
                replay(state, batch_stream(), batch));
}
BENCHMARK(BM_ServeEpoch)->Arg(1)->Arg(8)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_ServeLive(benchmark::State& state) {
  const auto live = static_cast<std::uint64_t>(state.range(0));
  export_gauges("live" + std::to_string(live),
                replay(state, make_stream(live), 64));
}
// One iteration: a 100k bootstrap per iteration would dominate the run.
BENCHMARK(BM_ServeLive)->Arg(10000)->Arg(100000)->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  mrscan::bench::write_bench_snapshot("serve_epoch", g_registry);
  return 0;
}
