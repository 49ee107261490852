// mrscan_cli — file-driven command line interface to the pipeline.
//
//   $ ./examples/mrscan_cli --input points.txt --eps 0.1 --minpts 40
//         --leaves 8 --output clusters.txt
//
// Reads a point file (text "id x y [weight]" lines, or the binary format
// if the file starts with the MRSC magic), clusters it, and writes the
// labeled output ("id x y weight cluster" lines) — mirroring the paper's
// single-input-file, single-output-file contract (§3).
//
//   --input PATH      input point file (required)
//   --output PATH     output labeled file (default: <input>.clusters)
//   --eps FLOAT       DBSCAN Eps (default 0.1)
//   --minpts N        DBSCAN MinPts (default 40)
//   --leaves N        clustering leaf processes (default 8)
//   --partition-nodes N  partitioner width (default 4)
//   --host-threads N  host workers for the phase loops and the output
//                     write (0 = hardware concurrency, default 1);
//                     output is bit-identical for any value (DESIGN §8)
//   --cluster-algo A  per-leaf cluster formulation: "two-pass" (default)
//                     or "cell-graph" (DESIGN §12); both yield the same
//                     clustering
//   --index-backend B spatial index the per-leaf kernels traverse:
//                     "kdtree" (default) or "bvh" (fused traversal,
//                     DESIGN §13); both yield the same clustering
//   --keep-noise      include noise points (cluster id -1) in the output
//   --demo N          instead of --input, generate N synthetic tweets
//   --trace-out PATH  trace the run and write its Chrome trace-event JSON
//                     (load in chrome://tracing or ui.perfetto.dev)
//   --metrics-out PATH  write the run's flat metrics snapshot JSON (the
//                     same series whether or not the run is traced)
// Both files are written after the labeled output.
//
// Out-of-core mode (DESIGN §15) — identical output, bounded memory:
//
//   --ooc-dir PATH    spool directory: partitions stream through per-leaf
//                     segment files and the cluster phase keeps only a
//                     bounded working set of leaves resident. The labeled
//                     text written to --output is byte-identical to a
//                     resident run.
//   --working-set N   leaves concurrently resident (default 8; needs
//                     --ooc-dir)
//   --resume          restore finished leaves from --ooc-dir's checkpoint
//                     manifest instead of re-clustering them
//   --ooc-abort-after N  test hook: abort (exit 3) after N freshly
//                     clustered leaves, right after a checkpoint — the
//                     run is then resumable with --resume
//
// Serving mode (DESIGN §14) — a long-lived serve::ClusterService driven
// by a mutation script instead of a one-shot batch run:
//
//   $ ./examples/mrscan_cli --serve --serve-script mutations.txt
//         --eps 0.1 --minpts 40 --output live.clusters
//
//   --serve             run a ClusterService instead of the batch pipeline
//   --serve-script PATH mutation script (insert/remove/epoch/query/stats
//                       lines; see src/serve/script.hpp)
//   --serve-demo N      instead of a script: stream N generated mutations
//   --serve-initial N   demo-stream bootstrap size (default 1000)
//   --serve-epoch-every K  demo stream: advance an epoch every K
//                       mutations (default 25)
//   --serve-dist D      demo stream distribution: "twitter" (default) or
//                       "blobs"
// --eps/--minpts/--host-threads configure the service (--host-threads
// also the output write); --output writes the final snapshot's labeled
// points; --metrics-out writes the service registry's serve.* snapshot.
//
// Flag errors are one line on stderr + exit 2 (scripts can pattern-match
// them); runtime failures are one line + exit 1.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "core/mrscan.hpp"
#include "data/stream.hpp"
#include "data/twitter.hpp"
#include "io/labeled_file.hpp"
#include "io/point_file.hpp"
#include "obs/export.hpp"
#include "serve/script.hpp"
#include "serve/service.hpp"
#include "sweep/sweep.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --input PATH [--output PATH] [--eps F] "
               "[--minpts N] [--leaves N] [--partition-nodes N] "
               "[--host-threads N] [--cluster-algo two-pass|cell-graph] "
               "[--index-backend kdtree|bvh] "
               "[--keep-noise] [--trace-out PATH] "
               "[--metrics-out PATH] "
               "[--ooc-dir PATH [--working-set N] [--resume] "
               "[--ooc-abort-after N]] | --demo N | "
               "--serve [--serve-script PATH | --serve-demo N] "
               "[--serve-initial N] [--serve-epoch-every K] "
               "[--serve-dist twitter|blobs]\n",
               argv0);
  std::exit(2);
}

/// Flag audit contract: a bad value is exactly one stderr line + exit 2.
[[noreturn]] void bad_value(const char* flag, const char* value,
                            const char* expected) {
  std::fprintf(stderr, "mrscan_cli: invalid value '%s' for %s (expected %s)\n",
               value, flag, expected);
  std::exit(2);
}

/// The whole of `value` as a number of type T; anything else (garbage,
/// a sign on a count, trailing characters, a value out of T's range) is
/// a bad value.
template <typename T>
T parse_number(const char* flag, const char* value, const char* expected) {
  T parsed{};
  const char* const end = value + std::strlen(value);
  const auto [ptr, ec] = std::from_chars(value, end, parsed);
  if (ec != std::errc{} || ptr != end) bad_value(flag, value, expected);
  return parsed;
}

std::uint64_t parse_count(const char* flag, const char* value) {
  return parse_number<std::uint64_t>(flag, value, "a count");
}

std::uint64_t parse_positive_count(const char* flag, const char* value) {
  const auto n = parse_number<std::uint64_t>(flag, value, "a positive count");
  if (n == 0) bad_value(flag, value, "a positive count");
  return n;
}

[[noreturn]] void bad_flag(const char* flag) {
  std::fprintf(stderr, "mrscan_cli: unknown flag '%s'\n", flag);
  std::exit(2);
}

bool is_binary_point_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char magic[4] = {0, 0, 0, 0};
  in.read(magic, 4);
  return in && std::memcmp(magic, "MRSC", 4) == 0;
}

struct ServeOptions {
  bool enabled = false;
  std::string script;
  std::uint64_t demo_mutations = 0;
  std::uint64_t demo_initial = 1000;
  std::uint64_t epoch_every = 25;
  mrscan::data::StreamDistribution distribution =
      mrscan::data::StreamDistribution::kTwitter;
};

/// Render a generated demo stream as script text, so the demo path and
/// the script path exercise the identical command pipeline.
std::string demo_stream_script(const ServeOptions& serve) {
  mrscan::data::StreamConfig config;
  config.distribution = serve.distribution;
  config.initial_points = serve.demo_initial;
  config.mutations = serve.demo_mutations;
  const auto stream = mrscan::data::generate_mutation_stream(config);
  std::ostringstream script;
  for (const auto& p : stream.initial) {
    script << "insert " << p.id << " " << p.x << " " << p.y << "\n";
  }
  script << "epoch\n";
  std::uint64_t since_epoch = 0;
  for (const auto& m : stream.mutations) {
    if (m.kind == mrscan::data::Mutation::Kind::kInsert) {
      script << "insert " << m.point.id << " " << m.point.x << " "
             << m.point.y << "\n";
    } else {
      script << "remove " << m.point.id << "\n";
    }
    if (++since_epoch >= serve.epoch_every) {
      script << "epoch\n";
      since_epoch = 0;
    }
  }
  if (since_epoch > 0) script << "epoch\n";
  return script.str();
}

int run_serve(const ServeOptions& serve, double eps, std::size_t min_pts,
              std::size_t host_threads, const std::string& output,
              const std::string& metrics_out) {
  using namespace mrscan;
  serve::ServeConfig config;
  config.params = {eps, min_pts};
  config.host_threads = host_threads;
  serve::ClusterService service(config);

  serve::ScriptResult script_result;
  if (!serve.script.empty()) {
    std::ifstream in(serve.script);
    if (!in) {
      std::fprintf(stderr, "mrscan_cli: cannot open serve script '%s'\n",
                   serve.script.c_str());
      return 1;
    }
    script_result = serve::run_script(service, in, std::cout);
  } else {
    std::istringstream in(demo_stream_script(serve));
    script_result = serve::run_script(service, in, std::cout);
  }
  if (!script_result.ok) {
    std::fprintf(stderr, "mrscan_cli: serve script error at line %s\n",
                 script_result.error.c_str());
    return 1;
  }

  const auto snapshot = service.snapshot();
  // Exercise the concurrent-query surface so the serve.query.* series
  // carry data (the smoke validator requires the latency histogram).
  std::size_t probed = 0;
  for (const auto& point : snapshot->points) {
    if (probed++ >= 16) break;
    (void)service.label_of(point.id);
  }
  if (!output.empty()) {
    std::vector<sweep::LabeledPoint> records;
    records.reserve(snapshot->points.size());
    for (std::size_t i = 0; i < snapshot->points.size(); ++i) {
      records.push_back(
          sweep::LabeledPoint{snapshot->points[i], snapshot->labels[i]});
    }
    try {
      sweep::write_labeled_text(output, records, host_threads);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  if (!metrics_out.empty()) {
    try {
      obs::write_text_file(
          metrics_out, obs::metrics_json(service.metrics().snapshot()));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }

  std::printf("serve: %llu commands, %llu epochs (%llu failed)\n",
              static_cast<unsigned long long>(script_result.commands),
              static_cast<unsigned long long>(script_result.epochs),
              static_cast<unsigned long long>(script_result.failed_epochs));
  std::printf("epoch %llu: %zu live points, %zu clusters\n",
              static_cast<unsigned long long>(snapshot->epoch),
              snapshot->points.size(), snapshot->clusters.size());
  if (!output.empty()) std::printf("output: %s\n", output.c_str());
  if (!metrics_out.empty()) {
    std::printf("metrics: %s\n", metrics_out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mrscan;

  std::string input, output;
  double eps = 0.1;
  std::size_t min_pts = 40;
  std::size_t leaves = 8;
  std::size_t partition_nodes = 4;
  std::size_t host_threads = 1;
  bool keep_noise = false;
  std::uint64_t demo_points = 0;
  auto cluster_algo = cluster::ClusterAlgo::kTwoPass;
  auto index_backend = index::Backend::kKdTree;
  std::string trace_out, metrics_out;
  core::OocOptions ooc;
  bool working_set_given = false;
  ServeOptions serve;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--input") {
      input = next();
    } else if (arg == "--output") {
      output = next();
    } else if (arg == "--eps") {
      const char* value = next();
      eps = parse_number<double>("--eps", value, "a positive distance");
      if (!std::isfinite(eps) || eps <= 0.0) {
        bad_value("--eps", value, "a positive distance");
      }
    } else if (arg == "--minpts") {
      min_pts = parse_positive_count("--minpts", next());
    } else if (arg == "--leaves") {
      leaves = parse_positive_count("--leaves", next());
    } else if (arg == "--partition-nodes") {
      partition_nodes = parse_positive_count("--partition-nodes", next());
    } else if (arg == "--host-threads") {
      host_threads = parse_count("--host-threads", next());
    } else if (arg == "--cluster-algo") {
      const char* value = next();
      const auto parsed = cluster::parse_cluster_algo(value);
      if (!parsed) bad_value("--cluster-algo", value, "two-pass|cell-graph");
      cluster_algo = *parsed;
    } else if (arg == "--index-backend") {
      const char* value = next();
      const auto parsed = index::parse_backend(value);
      if (!parsed) bad_value("--index-backend", value, "kdtree|bvh");
      index_backend = *parsed;
    } else if (arg == "--keep-noise") {
      keep_noise = true;
    } else if (arg == "--demo") {
      demo_points = parse_count("--demo", next());
    } else if (arg == "--ooc-dir") {
      ooc.enabled = true;
      ooc.dir = next();
    } else if (arg == "--working-set") {
      ooc.working_set = parse_positive_count("--working-set", next());
      working_set_given = true;
    } else if (arg == "--resume") {
      ooc.resume = true;
    } else if (arg == "--ooc-abort-after") {
      ooc.abort_after_leaves = parse_count("--ooc-abort-after", next());
    } else if (arg == "--trace-out") {
      trace_out = next();
    } else if (arg == "--metrics-out") {
      metrics_out = next();
    } else if (arg == "--serve") {
      serve.enabled = true;
    } else if (arg == "--serve-script") {
      serve.script = next();
    } else if (arg == "--serve-demo") {
      serve.demo_mutations = parse_count("--serve-demo", next());
    } else if (arg == "--serve-initial") {
      serve.demo_initial = parse_count("--serve-initial", next());
    } else if (arg == "--serve-epoch-every") {
      serve.epoch_every = parse_positive_count("--serve-epoch-every", next());
    } else if (arg == "--serve-dist") {
      const std::string value = next();
      if (value == "twitter") {
        serve.distribution = data::StreamDistribution::kTwitter;
      } else if (value == "blobs") {
        serve.distribution = data::StreamDistribution::kBlobs;
      } else {
        bad_value("--serve-dist", value.c_str(), "twitter|blobs");
      }
    } else {
      bad_flag(arg.c_str());
    }
  }

  if (serve.enabled) {
    if (serve.script.empty() && serve.demo_mutations == 0) {
      std::fprintf(stderr,
                   "mrscan_cli: --serve needs --serve-script PATH or "
                   "--serve-demo N\n");
      return 2;
    }
    return run_serve(serve, eps, min_pts, host_threads, output, metrics_out);
  }
  if (!serve.script.empty() || serve.demo_mutations != 0) {
    std::fprintf(stderr,
                 "mrscan_cli: --serve-script/--serve-demo need --serve\n");
    return 2;
  }
  if (!ooc.enabled &&
      (working_set_given || ooc.resume || ooc.abort_after_leaves != 0)) {
    std::fprintf(stderr,
                 "mrscan_cli: --working-set/--resume/--ooc-abort-after "
                 "need --ooc-dir PATH\n");
    return 2;
  }
  if (input.empty() && demo_points == 0) usage(argv[0]);

  geom::PointSet points;
  if (demo_points > 0) {
    data::TwitterConfig tw;
    tw.num_points = demo_points;
    points = data::generate_twitter(tw);
    if (input.empty()) input = "demo";
    std::printf("generated %llu demo points\n",
                static_cast<unsigned long long>(demo_points));
  } else {
    try {
      points = is_binary_point_file(input) ? io::read_points_binary(input)
                                           : io::read_points_text(input);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    std::printf("read %zu points from %s\n", points.size(), input.c_str());
  }
  if (output.empty()) output = input + ".clusters";

  core::MrScanConfig config;
  config.params = {eps, min_pts};
  config.leaves = leaves;
  config.partition_nodes = partition_nodes;
  config.host_threads = host_threads;
  config.cluster_algo = cluster_algo;
  config.index_backend = index_backend;
  config.keep_noise = keep_noise;
  config.ooc = ooc;
  config.trace = !trace_out.empty();

  core::MrScanResult result;
  try {
    const core::MrScan pipeline(config);
    result = pipeline.run(points);
  } catch (const core::OocAborted& e) {
    // The checkpoint written just before the abort makes the run
    // resumable; scripts pattern-match exit 3 for "killed, resume me".
    std::fprintf(stderr, "mrscan_cli: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  try {
    if (ooc.enabled) {
      // Convert the streamed binary output to the labeled text contract so
      // an out-of-core CLI run's --output is byte-identical to a resident
      // run's.
      std::vector<sweep::LabeledPoint> records;
      io::LabeledFileReader reader(result.output_path);
      records.reserve(reader.records());
      geom::Point point;
      std::int64_t cluster = 0;
      while (reader.next(point, cluster)) {
        records.push_back(sweep::LabeledPoint{point, cluster});
      }
      sweep::write_labeled_text(output, records, host_threads);
    } else {
      sweep::write_labeled_text(output, result.output, host_threads);
    }
    if (!trace_out.empty()) {
      obs::write_text_file(trace_out,
                           obs::chrome_trace_json(result.obs->tracer()));
    }
    if (!metrics_out.empty()) {
      obs::write_text_file(
          metrics_out, obs::metrics_json(result.obs->metrics().snapshot()));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  std::printf("clusters: %zu\n", result.cluster_count);
  std::printf("output records: %llu -> %s\n",
              static_cast<unsigned long long>(result.output_records),
              output.c_str());
  if (ooc.enabled && result.ooc_leaves_restored > 0) {
    std::printf("resumed: %zu leaves restored from checkpoint\n",
                result.ooc_leaves_restored);
  }
  // One-line phase breakdown straight from the run's metrics registry.
  std::printf("wall: %s\n", result.obs->phase_summary().c_str());
  std::printf("simulated (Titan model): total %.2fs [startup %.2f, "
              "partition %.2f, cluster+merge %.2f, sweep %.2f]\n",
              result.sim.total(), result.sim.startup, result.sim.partition,
              result.sim.cluster_merge, result.sim.sweep);
  if (!trace_out.empty()) std::printf("trace: %s\n", trace_out.c_str());
  if (!metrics_out.empty()) {
    std::printf("metrics: %s\n", metrics_out.c_str());
  }
  return 0;
}
