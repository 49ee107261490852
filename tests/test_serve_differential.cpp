// Differential battery for the serving mode: after EVERY prefix of a
// seeded >= 200-mutation stream, the ClusterService's published labels
// are the same clustering as a cold batch core::MrScan run over the
// surviving point set.
//
// Coverage matrix:
//   * the bootstrap epoch itself (prefix 0) against batch;
//   * serve host_threads {1, 4}: the two services must be bit-identical
//     (determinism contract), and both equivalent to batch;
//   * batch cluster algos: two-pass verified at every prefix, cell-graph
//     (and host_threads 4) at every kFullMatrixStride-th prefix + final;
//   * a fault-injected twin (dropped publish + straggler epoch) fed the
//     identical stream: labels never diverge, retries land in the stats;
//   * incrementality: on every single-mutation epoch the re-clustered
//     point count stays strictly below the live point count.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster_equiv.hpp"
#include "core/mrscan.hpp"
#include "data/stream.hpp"
#include "serve/service.hpp"

namespace md = mrscan::data;
namespace mg = mrscan::geom;
namespace ms = mrscan::serve;

namespace {

constexpr std::size_t kFullMatrixStride = 25;

std::vector<mrscan::dbscan::ClusterId> batch_labels(
    const mg::PointSet& points, const mrscan::dbscan::DbscanParams& params,
    mrscan::cluster::ClusterAlgo algo, std::size_t host_threads) {
  mrscan::core::MrScanConfig config;
  config.params = params;
  config.leaves = 4;
  config.partition_nodes = 2;
  config.host_threads = host_threads;
  config.cluster_algo = algo;
  return mrscan::core::MrScan(config).run(points).labels_for(points);
}

void apply(ms::ClusterService& service, const md::Mutation& m) {
  if (m.kind == md::Mutation::Kind::kInsert) {
    service.insert(m.point);
  } else {
    service.remove(m.point.id);
  }
}

void run_battery(const md::StreamConfig& stream_config,
                 const mrscan::dbscan::DbscanParams& params,
                 std::size_t check_stride) {
  const auto stream = md::generate_mutation_stream(stream_config);

  ms::ServeConfig serve1;
  serve1.params = params;
  serve1.host_threads = 1;
  ms::ServeConfig serve4 = serve1;
  serve4.host_threads = 4;
  // The fault twin: the epoch at the stream's midpoint loses a publish
  // attempt, the one after runs 3x slow. Labels must never notice.
  ms::ServeConfig faulty = serve1;
  const auto mid =
      static_cast<std::uint32_t>(2 + stream.mutations.size() / 2);
  faulty.fault_plan.drop(mid, 0).slow(mid + 1, 3.0);

  ms::ClusterService service1(serve1);
  ms::ClusterService service4(serve4);
  ms::ClusterService service_faulty(faulty);
  ASSERT_TRUE(service1.bootstrap(stream.initial).ok);
  ASSERT_TRUE(service4.bootstrap(stream.initial).ok);
  ASSERT_TRUE(service_faulty.bootstrap(stream.initial).ok);

  // The bootstrap epoch alone already matches a cold batch run.
  {
    const auto snap = service1.snapshot();
    ASSERT_EQ(snap->points.size(), stream.initial.size());
    ASSERT_TRUE(mrscan::test::same_clustering(
        snap->labels,
        batch_labels(snap->points, params,
                     mrscan::cluster::ClusterAlgo::kTwoPass, 1)))
        << "bootstrap: serve diverged from batch (two-pass)";
  }

  std::uint64_t fault_retries = 0;
  for (std::size_t prefix = 0; prefix < stream.mutations.size(); ++prefix) {
    apply(service1, stream.mutations[prefix]);
    apply(service4, stream.mutations[prefix]);
    apply(service_faulty, stream.mutations[prefix]);
    const auto r1 = service1.advance_epoch();
    const auto r4 = service4.advance_epoch();
    const auto rf = service_faulty.advance_epoch();
    ASSERT_TRUE(r1.ok && r4.ok && rf.ok) << "prefix " << prefix;
    fault_retries += rf.stats.retries;

    const auto snap1 = service1.snapshot();
    const auto snap4 = service4.snapshot();
    const auto snapf = service_faulty.snapshot();
    const std::string context = "prefix " + std::to_string(prefix + 1);

    // Determinism across worker counts and fault plans: bit-identical.
    ASSERT_EQ(snap1->labels, snap4->labels) << context;
    ASSERT_EQ(snap1->core, snap4->core) << context;
    ASSERT_EQ(snap1->labels, snapf->labels) << context;

    // Incrementality: a single-mutation epoch on an established set never
    // re-clusters the whole world.
    if (r1.stats.live_points > 100) {
      EXPECT_LT(r1.stats.recluster_points, r1.stats.live_points) << context;
    }

    // Equivalence with a cold batch run on the surviving point set.
    ASSERT_TRUE(mrscan::test::same_clustering(
        snap1->labels,
        batch_labels(snap1->points, params,
                     mrscan::cluster::ClusterAlgo::kTwoPass, 1)))
        << context << ": serve diverged from batch (two-pass)";
    const bool full_matrix = (prefix + 1) % check_stride == 0 ||
                             prefix + 1 == stream.mutations.size();
    if (full_matrix) {
      ASSERT_TRUE(mrscan::test::same_clustering(
          snap1->labels,
          batch_labels(snap1->points, params,
                       mrscan::cluster::ClusterAlgo::kCellGraph, 4)))
          << context << ": serve diverged from batch (cell-graph)";
    }
  }
  EXPECT_GE(fault_retries, 1u) << "the fault twin never exercised a retry";
}

}  // namespace

TEST(ServeDifferential, BlobStreamEveryPrefix) {
  md::StreamConfig config;
  config.distribution = md::StreamDistribution::kBlobs;
  config.initial_points = 600;
  config.mutations = 200;
  run_battery(config, {0.35, 6}, kFullMatrixStride);
}

TEST(ServeDifferential, TwitterStreamEveryPrefix) {
  md::StreamConfig config;
  config.distribution = md::StreamDistribution::kTwitter;
  config.initial_points = 400;
  config.mutations = 200;
  config.remove_fraction = 0.45;
  config.seed = 42;
  run_battery(config, {0.05, 5}, kFullMatrixStride);
}

TEST(ServeDifferential, BurstEpochsMatchBatchToo) {
  // Same contract when mutations arrive in bursts (many per epoch):
  // 10 epochs of 25 mutations each over the blob stream.
  md::StreamConfig stream_config;
  stream_config.distribution = md::StreamDistribution::kBlobs;
  stream_config.initial_points = 500;
  stream_config.mutations = 250;
  const auto stream = md::generate_mutation_stream(stream_config);
  const mrscan::dbscan::DbscanParams params{0.35, 6};

  ms::ServeConfig config;
  config.params = params;
  config.host_threads = 2;
  ms::ClusterService service(config);
  ASSERT_TRUE(service.bootstrap(stream.initial).ok);

  std::size_t applied = 0;
  while (applied < stream.mutations.size()) {
    const std::size_t batch_end =
        std::min(applied + 25, stream.mutations.size());
    for (; applied < batch_end; ++applied) {
      apply(service, stream.mutations[applied]);
    }
    const auto result = service.advance_epoch();
    ASSERT_TRUE(result.ok);
    EXPECT_LT(result.stats.recluster_points, result.stats.live_points);
    const auto snapshot = service.snapshot();
    ASSERT_TRUE(mrscan::test::same_clustering(
        snapshot->labels,
        batch_labels(snapshot->points, params,
                     mrscan::cluster::ClusterAlgo::kTwoPass, 1)))
        << "after " << applied << " mutations";
  }
}
