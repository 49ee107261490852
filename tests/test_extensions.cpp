// Tests for the two pipeline extensions: direct network transport (the
// paper's §6 future work) and the shadow-regions-off ablation (which must
// demonstrably break cross-partition clusters, §3.1.1).
#include <gtest/gtest.h>

#include "core/mrscan.hpp"
#include "data/twitter.hpp"
#include "data/synthetic.hpp"
#include "dbscan/sequential.hpp"
#include "partition/distributed.hpp"
#include "quality/dbdc.hpp"
#include "util/thread_pool.hpp"

namespace mg = mrscan::geom;
namespace md = mrscan::dbscan;
namespace mc = mrscan::core;
namespace mp = mrscan::partition;

namespace {

mg::PointSet twitter_points(std::uint64_t n) {
  mrscan::data::TwitterConfig tw;
  tw.num_points = n;
  return mrscan::data::generate_twitter(tw);
}

}  // namespace

TEST(DirectTransport, SameClusteringAsLustre) {
  const auto points = twitter_points(10000);
  mc::MrScanConfig config;
  config.params = {0.1, 40};
  config.leaves = 6;

  const auto lustre = mc::MrScan(config).run(points);
  config.transport = mp::Transport::kDirect;
  const auto direct = mc::MrScan(config).run(points);

  EXPECT_EQ(lustre.cluster_count, direct.cluster_count);
  EXPECT_EQ(lustre.labels_for(points), direct.labels_for(points));
}

TEST(DirectTransport, RemovesTheWriteTerm) {
  const auto points = twitter_points(10000);
  mp::DistributedPartitionerConfig config;
  config.eps = 0.1;
  config.partition_nodes = 4;
  config.planner = mp::PartitionerConfig{8, 40, true, 1.075};

  mrscan::util::ThreadPool pool(1);
  const auto lustre = mp::run_distributed_partitioner(
      points, config, mrscan::sim::TitanParams{}, pool);
  config.transport = mp::Transport::kDirect;
  const auto direct = mp::run_distributed_partitioner(
      points, config, mrscan::sim::TitanParams{}, pool);

  EXPECT_GT(lustre.write_seconds, 0.0);
  EXPECT_DOUBLE_EQ(lustre.send_seconds, 0.0);
  EXPECT_DOUBLE_EQ(direct.write_seconds, 0.0);
  EXPECT_GT(direct.send_seconds, 0.0);
  // The interconnect is orders of magnitude faster than the contended
  // file system for this pattern.
  EXPECT_LT(direct.sim_seconds, lustre.sim_seconds);
}

TEST(DirectTransport, EndToEndPartitionPhaseFaster) {
  const auto points = twitter_points(20000);
  mc::MrScanConfig config;
  config.params = {0.1, 40};
  config.leaves = 8;

  const auto lustre = mc::MrScan(config).run(points);
  config.transport = mp::Transport::kDirect;
  const auto direct = mc::MrScan(config).run(points);
  EXPECT_LT(direct.sim.partition, lustre.sim.partition);
}

TEST(ShadowRegionsOff, SplitsClustersThatSpanPartitions) {
  // One giant cluster across the window: without shadow regions the
  // leaves cannot see across boundaries and the merge has nothing to work
  // with, so the pipeline reports more clusters than the truth.
  const auto points = mrscan::data::uniform_points(
      20000, mg::BBox{0.0, 0.0, 4.0, 4.0}, 11);
  mc::MrScanConfig config;
  config.params = {0.1, 4};
  config.leaves = 8;

  const auto with_shadow = mc::MrScan(config).run(points);
  ASSERT_EQ(with_shadow.cluster_count, 1u);

  config.shadow_regions = false;
  const auto without = mc::MrScan(config).run(points);
  EXPECT_GT(without.cluster_count, 1u);

  // And the DBDC score against the reference collapses accordingly.
  const auto ref = md::dbscan_sequential(points, config.params);
  const double q_with = mrscan::quality::dbdc_quality(
      ref.cluster, with_shadow.labels_for(points));
  const double q_without = mrscan::quality::dbdc_quality(
      ref.cluster, without.labels_for(points));
  EXPECT_GT(q_with, 0.995);
  EXPECT_LT(q_without, 0.9);
}

TEST(ShadowRegionsOff, PlanHasNoShadowCells) {
  const auto points = twitter_points(8000);
  const mg::GridGeometry geometry{mg::bbox_of(points).min_x,
                                  mg::bbox_of(points).min_y, 0.1};
  const mrscan::index::CellHistogram hist(geometry, points);
  const auto plan = mp::plan_partitions(
      hist, geometry, mp::PartitionerConfig{8, 4, true, 1.075, false});
  for (const auto& part : plan.parts) {
    EXPECT_TRUE(part.shadow_cells.empty());
    EXPECT_EQ(part.shadow_points, 0u);
  }
}
