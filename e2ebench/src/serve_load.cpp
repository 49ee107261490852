// The serve workload: a ClusterService bootstrapped with a seeded
// Twitter stream, then one writer (mutations, an epoch every 64) and one
// reader (label_of on the pinned snapshot) running closed loops at once.
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "data/stream.hpp"
#include "data/twitter.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"

namespace e2e {

using namespace mrscan;

namespace {

constexpr std::uint64_t kInitialPoints = 100'000;
constexpr std::uint64_t kEpochEvery = 64;
/// More mutations than any run can apply; the writer stops at the
/// deadline.
constexpr std::uint64_t kMutations = 64 * 2000;
constexpr double kRemoveFraction = 0.35;
/// Tweets the stream draws from: the generator's fixed city map, so a
/// seed changes which tweets arrive and leave, not where the hot spots
/// are (the batch workloads sample the same way).
constexpr std::uint64_t kPopulation = 3 * kInitialPoints;
/// sim_s and the reference digest cover this fixed prefix of epochs, so
/// they do not depend on how many epochs fit in the run; a run that is
/// slower than usual goes on until the prefix is complete.
constexpr std::uint64_t kPrefixEpochs = 128;
/// Reader latency samples kept (reservoir sampling over all queries).
constexpr std::size_t kQuerySamples = 200'000;

/// The seeded stream: a shuffled population split into the bootstrap set
/// and the insert pool; each mutation removes a uniformly chosen live
/// point with probability kRemoveFraction, else inserts the next pooled
/// one. Every remove targets a point live at that position.
data::MutationStream make_stream(std::uint64_t seed) {
  data::TwitterConfig config;
  config.num_points = kPopulation;
  geom::PointSet population = data::generate_twitter(config);
  util::Rng rng(seed);
  rng.shuffle(population);
  data::MutationStream stream;
  stream.initial.assign(population.begin(),
                        population.begin() + kInitialPoints);
  std::vector<geom::PointId> live;
  for (const geom::Point& p : stream.initial) live.push_back(p.id);
  std::size_t next = kInitialPoints;
  stream.mutations.reserve(kMutations);
  for (std::uint64_t m = 0; m < kMutations; ++m) {
    data::Mutation mutation;
    if (rng.next_double() < kRemoveFraction || next == population.size()) {
      const auto pick = static_cast<std::size_t>(rng.next_below(live.size()));
      mutation.kind = data::Mutation::Kind::kRemove;
      mutation.point.id = live[pick];
      live[pick] = live.back();
      live.pop_back();
    } else {
      mutation.point = population[next++];
      live.push_back(mutation.point.id);
    }
    stream.mutations.push_back(mutation);
  }
  return stream;
}

serve::ServeConfig serve_config() {
  serve::ServeConfig config;
  config.params = {0.1, 40};
  config.host_threads = 1;
  return config;
}

std::vector<sweep::LabeledPoint> snapshot_records(
    const serve::EpochSnapshot& snap) {
  std::vector<sweep::LabeledPoint> records(snap.points.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    records[i] = {snap.points[i], snap.labels[i]};
  }
  return records;
}

/// Closed-loop reader on its own thread: pin the current snapshot, pick
/// one of its live ids and look it up — the path ClusterService::label_of
/// takes, against the epoch the id is known to be live in. The destructor
/// stops and joins it, so no exit path leaves the thread running.
class Reader {
 public:
  Reader(const serve::ClusterService& service, std::uint64_t seed)
      : service_(service), rng_(seed ^ 0x7265616465720000ULL),
        thread_([this] { loop(); }) {}
  ~Reader() { stop(); }
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  // Valid after stop().
  std::uint64_t queries = 0;
  std::uint64_t missing = 0;  // includes a query that threw
  double seconds = 0.0;
  std::vector<double> latency_s;  // reservoir sample of kQuerySamples

 private:
  void loop() {
    latency_s.reserve(kQuerySamples);
    const double begin = now_s();
    try {
      while (!stop_.load(std::memory_order_relaxed)) query();
    } catch (const std::exception& e) {
      ++missing;
      std::fprintf(stderr, "e2ebench: reader: %s\n", e.what());
    }
    seconds = now_s() - begin;
  }

  void query() {
    const double t0 = now_s();
    bool found = false;
    {
      const auto guard = service_.snapshot();
      if (guard->points.empty()) return;
      const auto id = guard->points[rng_.next_below(guard->points.size())].id;
      found = guard->label_of(id).has_value();
    }
    const double latency = now_s() - t0;
    ++queries;
    if (!found) ++missing;
    if (latency_s.size() < kQuerySamples) {
      latency_s.push_back(latency);
    } else if (const auto slot = rng_.next_below(queries);
               slot < kQuerySamples) {
      latency_s[slot] = latency;
    }
  }

  const serve::ClusterService& service_;
  util::Rng rng_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts after the members it uses
};

}  // namespace

void run_serve(const Options& options, Outcome& outcome) {
  data::MutationStream stream;
  std::unique_ptr<serve::ClusterService> service;
  const double setup_s = median_setup_s([&] {
    service.reset();
    stream = make_stream(options.seed);
    service = std::make_unique<serve::ClusterService>(serve_config());
    const serve::EpochResult boot = service->bootstrap(stream.initial);
    outcome.check(boot.ok, "bootstrap epoch: " + boot.error);
  });

  reset_peak_rss();
  Reader reader(*service, options.seed);

  // Writer: closed loop over the stream. With --trace 1 the second half
  // of the run records spans around each mutation batch and epoch.
  SpanRecorder spans;
  std::vector<double> untraced_ms, traced_ms;
  std::vector<serve::EpochStats> epochs;
  double prefix_sim = 0.0;
  double traced_begin = 0.0;
  const double start = now_s();
  const double deadline = start + options.seconds;
  const double trace_from =
      options.trace ? start + options.seconds / 2 : deadline;
  std::size_t next = 0;
  while (next < stream.mutations.size() &&
         (now_s() < deadline || epochs.size() < kPrefixEpochs)) {
    const bool traced = now_s() >= trace_from;
    if (traced && traced_begin == 0.0) traced_begin = spans.elapsed();
    SpanRecorder* rec = traced ? &spans : nullptr;
    const std::uint64_t epoch_id = service->epoch() + 1;
    const double batch_start = now_s();
    {
      const Scope s(rec, "serve.mutate", -1, epoch_id);
      const std::size_t end =
          std::min<std::size_t>(stream.mutations.size(), next + kEpochEvery);
      for (; next < end; ++next) {
        const data::Mutation& m = stream.mutations[next];
        if (m.kind == data::Mutation::Kind::kInsert) {
          service->insert(m.point);
        } else {
          service->remove(m.point.id);
        }
      }
    }
    serve::EpochResult result;
    {
      const Scope s(rec, "serve.epoch", -1, epoch_id);
      result = service->advance_epoch();
    }
    (traced ? traced_ms : untraced_ms)
        .push_back(1000.0 * (now_s() - batch_start));
    outcome.check(result.ok, "epoch " + std::to_string(epoch_id) + ": " +
                                 result.error);
    epochs.push_back(result.stats);
    if (epochs.size() <= kPrefixEpochs) prefix_sim += result.stats.sim_seconds;
    if (epochs.size() == kPrefixEpochs) {
      // The fixed-prefix check, outside every timed interval.
      const auto snap = service->snapshot();
      const std::uint64_t canonical =
          canonical_digest(snapshot_records(*snap));
      std::printf("observed: canonical=%s clusters=%zu records=%zu "
                  "sim_s=%.17g\n",
                  hex64(canonical).c_str(), snap->clusters.size(),
                  snap->points.size(), prefix_sim);
      const Expectation& e = options.expect;
      outcome.check(
          (!e.canonical || canonical == *e.canonical) &&
              (!e.clusters || snap->clusters.size() == *e.clusters) &&
              (!e.records || snap->points.size() == *e.records) &&
              (!e.sim_s || prefix_sim == *e.sim_s),
          "epoch-" + std::to_string(kPrefixEpochs) +
              " snapshot differs from the reference");
    }
  }
  const double traced_end = spans.elapsed();
  reader.stop();
  const double peak = peak_rss_mb();
  outcome.check(epochs.size() >= kPrefixEpochs,
                "only " + std::to_string(epochs.size()) + " epochs ran; " +
                    std::to_string(kPrefixEpochs) + " needed");
  outcome.attempted += reader.queries;
  outcome.failed += reader.missing;
  if (reader.missing > 0) {
    std::fprintf(stderr, "e2ebench: FAILED %llu queries found no label\n",
                 static_cast<unsigned long long>(reader.missing));
  }

  // The final snapshot must cluster exactly like a cold batch run over
  // its live points.
  {
    const auto snap = service->snapshot();
    core::MrScanConfig config;
    config.params = serve_config().params;
    config.leaves = 4;
    config.host_threads = 4;
    config.cluster_algo = cluster::ClusterAlgo::kCellGraph;
    const core::MrScanResult batch = core::MrScan(config).run(snap->points);
    outcome.check(sweep::equivalent_partitions(
                      snap->labels, batch.labels_for(snap->points)),
                  "final snapshot differs from a cold batch run");
  }
  std::printf("wall_s: median of %zu epochs; %llu queries\n",
              untraced_ms.size(),
              static_cast<unsigned long long>(reader.queries));

  if (!options.trace) {
    outcome.set("wall_s", median(untraced_ms) / 1000.0, "s");
    outcome.set("sim_s", prefix_sim, "s");
    outcome.set("peak_rss_mb", peak, "MB");
    outcome.set("setup_s", setup_s, "s");
    return;
  }
  double recluster = 0.0, ratio = 0.0, dirty = 0.0, edges = 0.0, ops = 0.0;
  for (const serve::EpochStats& s : epochs) {
    recluster += static_cast<double>(s.recluster_points);
    ratio += static_cast<double>(s.recluster_points) /
             static_cast<double>(std::max<std::uint64_t>(1, s.live_points));
    dirty += static_cast<double>(s.dirty_cells);
    edges += static_cast<double>(s.edge_tests);
    ops += static_cast<double>(s.distance_ops);
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, epochs.size()));
  outcome.set("serve.recluster_points_per_epoch", recluster / n, "count");
  outcome.set("serve.recluster_ratio", ratio / n, "ratio");
  outcome.set("serve.dirty_cells_per_epoch", dirty / n, "count");
  outcome.set("serve.edge_tests_per_epoch", edges / n, "count");
  outcome.set("serve.distance_ops_per_epoch", ops / n, "count");
  outcome.set("serve.queries_per_s",
              static_cast<double>(reader.queries) / reader.seconds, "1/s");
  outcome.set("epoch_ms_p50", percentile(untraced_ms, 50), "ms");
  outcome.set("epoch_ms_p90", percentile(untraced_ms, 90), "ms");
  outcome.set("query_us_p50", 1e6 * percentile(reader.latency_s, 50), "us");
  outcome.set("query_us_p99", 1e6 * percentile(reader.latency_s, 99), "us");
  double covered = 0.0;
  for (const Span& s : spans.spans()) covered += s.end - s.begin;
  outcome.set("trace.coverage", covered / (traced_end - traced_begin),
              "ratio");
  outcome.set("trace.overhead", median(traced_ms) / median(untraced_ms),
              "ratio");
  if (!options.trace_out.empty()) {
    std::ofstream out(options.trace_out);
    out << spans.chrome_json();
  }
}

}  // namespace e2e
