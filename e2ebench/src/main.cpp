// e2ebench — the end-to-end, layer-resolved benchmark binary.
//
//   e2ebench run --workload W --seed N --seconds S --trace 0|1
//                --workdir DIR [--trace-out PATH] [--expect-* ...]
//   e2ebench reference --workload W --seed N
//
// `run` prints human-readable lines and, last, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set, with --trace 1 the per-layer set
// (layers a workload does not run report 0). It exits 1 when any checked
// operation failed. run.py builds this binary and supplies the
// reference expectations; README.md documents every metric.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace {

using e2e::Outcome;

/// The per-layer metric set and units (BENCHMARK.json lists the same).
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"gpu.cluster_s", "s"},
    {"gpu.leaf_max_s", "s"},
    {"gpu.leaf_imbalance", "ratio"},
    {"gpu.distance_ops", "count"},
    {"gpu.kernel_launches", "count"},
    {"gpu.dense_points", "count"},
    {"cluster.cellgraph.bcp_ops", "count"},
    {"gpu.device_s_max", "s"},
    {"io.read_s", "s"},
    {"io.write_text_s", "s"},
    {"io.write_mb_per_s", "MB/s"},
    {"io.map_s", "s"},
    {"io.mapped_bytes", "bytes"},
    {"partition.histogram_s", "s"},
    {"partition.plan_s", "s"},
    {"partition.materialize_s", "s"},
    {"partition.spill_s", "s"},
    {"partition.shadow_ratio", "ratio"},
    {"partition.rebalance_moves", "count"},
    {"merge.summary_s", "s"},
    {"merge.summary_bytes", "bytes"},
    {"merge.merge_s", "s"},
    {"merge.merges_detected", "count"},
    {"merge.ops", "count"},
    {"mrnet.reduce_self_s", "s"},
    {"mrnet.bytes_up", "bytes"},
    {"fault.checkpoint_s", "s"},
    {"fault.checkpoint_bytes", "bytes"},
    {"sweep.label_s", "s"},
    {"sweep.records", "count"},
    {"core.self_s", "s"},
    {"serve.recluster_points_per_epoch", "count"},
    {"serve.recluster_ratio", "ratio"},
    {"serve.dirty_cells_per_epoch", "count"},
    {"serve.edge_tests_per_epoch", "count"},
    {"serve.distance_ops_per_epoch", "count"},
    {"serve.queries_per_s", "1/s"},
    {"epoch_ms_p50", "ms"},
    {"epoch_ms_p90", "ms"},
    {"query_us_p50", "us"},
    {"query_us_p99", "us"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"},
    {"failed_frac", "ratio"},
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: e2ebench run --workload W --seed N --seconds S "
               "--trace 0|1 --workdir DIR [--trace-out PATH] "
               "[--expect-canonical HEX] [--expect-raw HEX] "
               "[--expect-clusters N] [--expect-records N] "
               "[--expect-sim F]\n"
               "       e2ebench reference --workload W --seed N\n");
  std::exit(2);
}

std::uint64_t parse_u64(const char* s, int base = 10) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, base);
  if (end == s || *end != '\0') usage();
  return v;
}

double parse_double(const char* s) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0') usage();
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string mode = argv[1];
  e2e::Options options;
  std::string workload;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      options.seed = parse_u64(value);
    } else if (arg == "--seconds") {
      options.seconds = parse_double(value);
    } else if (arg == "--trace") {
      options.trace = parse_u64(value) != 0;
    } else if (arg == "--workdir") {
      options.workdir = value;
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else if (arg == "--expect-canonical") {
      options.expect.canonical = parse_u64(value, 16);
    } else if (arg == "--expect-raw") {
      options.expect.raw = parse_u64(value, 16);
    } else if (arg == "--expect-clusters") {
      options.expect.clusters = parse_u64(value);
    } else if (arg == "--expect-records") {
      options.expect.records = parse_u64(value);
    } else if (arg == "--expect-sim") {
      options.expect.sim_s = parse_double(value);
    } else {
      usage();
    }
  }
  options.workload = e2e::find_workload(workload);
  if (options.workload == nullptr) {
    std::fprintf(stderr, "e2ebench: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }

  try {
    if (mode == "reference") {
      return e2e::compute_reference(*options.workload, options.seed);
    }
    if (mode != "run" || options.workdir.empty()) usage();
    std::filesystem::create_directories(options.workdir);
    Outcome outcome;
    if (options.workload->dataset == e2e::Dataset::kServeTwitter) {
      e2e::run_serve(options, outcome);
    } else {
      e2e::run_batch(options, outcome);
    }
    if (options.trace) {
      outcome.set("failed_frac",
                  static_cast<double>(outcome.failed) /
                      static_cast<double>(std::max<std::uint64_t>(
                          1, outcome.attempted)),
                  "ratio");
      for (const auto& [name, unit] : kLayerMetrics) {
        if (outcome.metrics.count(name) == 0) outcome.set(name, 0.0, unit);
      }
    }
    std::printf("%s\n", outcome.json().c_str());
    std::fflush(stdout);
    return outcome.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: error: %s\n", e.what());
    return 1;
  }
}
