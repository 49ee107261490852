#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "core/mrscan.hpp"
#include "data/sdss.hpp"
#include "data/synthetic.hpp"
#include "data/twitter.hpp"
#include "dbscan/sequential.hpp"
#include "quality/dbdc.hpp"

namespace mg = mrscan::geom;
namespace md = mrscan::dbscan;
namespace mc = mrscan::core;

namespace {

mc::MrScanConfig base_config(double eps, std::size_t min_pts,
                             std::size_t leaves) {
  mc::MrScanConfig config;
  config.params = {eps, min_pts};
  config.leaves = leaves;
  config.partition_nodes = 2;
  return config;
}

double end_to_end_quality(const mg::PointSet& points,
                          const mc::MrScanConfig& config) {
  const mc::MrScan pipeline(config);
  const auto result = pipeline.run(points);
  const auto got = result.labels_for(points);
  const auto ref = md::dbscan_sequential(points, config.params);
  return mrscan::quality::dbdc_quality(ref.cluster, got);
}

}  // namespace

TEST(MrScanPipeline, MatchesSequentialOnTwitterData) {
  mrscan::data::TwitterConfig tw;
  tw.num_points = 20000;
  const auto points = mrscan::data::generate_twitter(tw);
  for (const std::size_t leaves : {1UL, 4UL, 9UL}) {
    const double q =
        end_to_end_quality(points, base_config(0.1, 40, leaves));
    EXPECT_GT(q, 0.995) << leaves << " leaves";
  }
}

TEST(MrScanPipeline, MatchesSequentialAcrossMinPts) {
  mrscan::data::TwitterConfig tw;
  tw.num_points = 12000;
  tw.seed = 77;
  const auto points = mrscan::data::generate_twitter(tw);
  for (const std::size_t min_pts : {4UL, 40UL, 400UL}) {
    const double q =
        end_to_end_quality(points, base_config(0.1, min_pts, 6));
    EXPECT_GT(q, 0.995) << "min_pts " << min_pts;
  }
}

TEST(MrScanPipeline, MatchesSequentialOnSdssData) {
  mrscan::data::SdssConfig sdss;
  sdss.num_points = 15000;
  const auto points = mrscan::data::generate_sdss(sdss);
  const double q =
      end_to_end_quality(points, base_config(0.00015, 5, 6));
  EXPECT_GT(q, 0.995);
}

TEST(MrScanPipeline, ClusterCountMatchesReference) {
  std::vector<mrscan::data::Blob> blobs{{0.0, 0.0, 0.3, 600},
                                        {10.0, 10.0, 0.3, 500},
                                        {0.0, 10.0, 0.2, 400},
                                        {10.0, 0.0, 0.2, 300}};
  const auto points = mrscan::data::gaussian_blobs(
      blobs, 200, mg::BBox{-5.0, -5.0, 15.0, 15.0}, 5);
  auto config = base_config(0.3, 4, 5);
  const mc::MrScan pipeline(config);
  const auto result = pipeline.run(points);
  const auto ref = md::dbscan_sequential(points, config.params);
  EXPECT_EQ(result.cluster_count, ref.cluster_count());
}

TEST(MrScanPipeline, OutputContainsEachOwnedPointOnce) {
  mrscan::data::TwitterConfig tw;
  tw.num_points = 8000;
  const auto points = mrscan::data::generate_twitter(tw);
  auto config = base_config(0.1, 10, 4);
  config.keep_noise = true;  // every point must appear exactly once
  const mc::MrScan pipeline(config);
  const auto result = pipeline.run(points);
  EXPECT_EQ(result.output.size(), points.size());
  std::unordered_set<mg::PointId> ids;
  for (const auto& r : result.output) {
    EXPECT_TRUE(ids.insert(r.point.id).second)
        << "duplicate point " << r.point.id;
  }
}

TEST(MrScanPipeline, NoiseDroppedByDefault) {
  const auto points = mrscan::data::uniform_points(
      500, mg::BBox{0.0, 0.0, 100.0, 100.0}, 3);
  auto config = base_config(0.5, 5, 2);
  const mc::MrScan pipeline(config);
  const auto result = pipeline.run(points);
  EXPECT_EQ(result.cluster_count, 0u);
  EXPECT_TRUE(result.output.empty());
}

TEST(MrScanPipeline, PhaseTimesArePopulated) {
  mrscan::data::TwitterConfig tw;
  tw.num_points = 10000;
  const auto points = mrscan::data::generate_twitter(tw);
  const mc::MrScan pipeline(base_config(0.1, 40, 4));
  const auto result = pipeline.run(points);
  EXPECT_GT(result.sim.partition, 0.0);
  EXPECT_GT(result.sim.cluster_merge, 0.0);
  EXPECT_GT(result.sim.sweep, 0.0);
  EXPECT_GT(result.sim.startup, 0.0);
  EXPECT_GT(result.sim.total(), result.sim.partition);
  EXPECT_GT(result.gpu_dbscan_seconds, 0.0);
  // Cluster-merge completion includes the slowest leaf's GPU time.
  EXPECT_GE(result.sim.cluster_merge, result.gpu_dbscan_seconds);
  // Wall phases were measured.
  EXPECT_GT(result.obs->wall_seconds("partition"), 0.0);
  EXPECT_GT(result.obs->wall_seconds("cluster"), 0.0);
}

TEST(MrScanPipeline, DeterministicAcrossRuns) {
  mrscan::data::TwitterConfig tw;
  tw.num_points = 6000;
  const auto points = mrscan::data::generate_twitter(tw);
  const mc::MrScan pipeline(base_config(0.1, 20, 3));
  const auto a = pipeline.run(points);
  const auto b = pipeline.run(points);
  EXPECT_EQ(a.cluster_count, b.cluster_count);
  EXPECT_EQ(a.labels_for(points), b.labels_for(points));
  EXPECT_DOUBLE_EQ(a.sim.partition, b.sim.partition);
  EXPECT_DOUBLE_EQ(a.sim.cluster_merge, b.sim.cluster_merge);
}

TEST(MrScanPipeline, EmptyInput) {
  const mc::MrScan pipeline(base_config(0.1, 4, 2));
  const auto result = pipeline.run({});
  EXPECT_TRUE(result.output.empty());
  EXPECT_EQ(result.cluster_count, 0u);
}

TEST(MrScanPipeline, SingleLeafDegeneratesToLocalClustering) {
  std::vector<mrscan::data::Blob> blobs{{0.0, 0.0, 0.2, 300},
                                        {5.0, 5.0, 0.2, 300}};
  const auto points = mrscan::data::gaussian_blobs(
      blobs, 50, mg::BBox{-2.0, -2.0, 7.0, 7.0}, 9);
  const mc::MrScan pipeline(base_config(0.25, 4, 1));
  const auto result = pipeline.run(points);
  const auto ref = md::dbscan_sequential(points, {0.25, 4});
  EXPECT_EQ(result.cluster_count, ref.cluster_count());
}

TEST(MrScanPipeline, ShadowRepOptimisationKeepsQualityHigh) {
  mrscan::data::TwitterConfig tw;
  tw.num_points = 15000;
  const auto points = mrscan::data::generate_twitter(tw);
  auto config = base_config(0.1, 40, 6);
  config.shadow_rep_threshold = 64;
  const double q = end_to_end_quality(points, config);
  // "local DBSCAN quality is preserved, but ... may cause the merge
  // algorithm to occasionally miss the opportunity to combine clusters."
  EXPECT_GT(q, 0.97);
}

TEST(MrScanPipeline, DenseBoxOffMatchesToo) {
  mrscan::data::TwitterConfig tw;
  tw.num_points = 10000;
  tw.seed = 3;
  const auto points = mrscan::data::generate_twitter(tw);
  auto config = base_config(0.1, 40, 4);
  config.gpu.dense_box = false;
  const double q = end_to_end_quality(points, config);
  EXPECT_GT(q, 0.995);
}

TEST(MrScanPipeline, MergesDetectedWhenClustersSpanLeaves) {
  // A single giant cluster spanning the whole window forces cross-leaf
  // merges at every partition boundary.
  const auto points = mrscan::data::uniform_points(
      20000, mg::BBox{0.0, 0.0, 4.0, 4.0}, 11);
  auto config = base_config(0.1, 4, 8);
  const mc::MrScan pipeline(config);
  const auto result = pipeline.run(points);
  EXPECT_EQ(result.cluster_count, 1u);
  EXPECT_GT(result.merges_detected, 0u);
  EXPECT_GT(result.leaves_used, 1u);
}

// ---- the input-domain contract ------------------------------------------

namespace {

/// Two 50-point clumps centred at x = `a` and x = `b` (y ~ 0.5), each
/// tight enough to be one cluster at Eps 0.1 and MinPts 10.
mg::PointSet two_clumps(double a, double b) {
  mg::PointSet points;
  for (const double centre : {a, b}) {
    for (int i = 0; i < 50; ++i) {
      points.push_back({points.size(), centre + 0.002 * (i % 7),
                        0.5 + 0.002 * (i / 7)});
    }
  }
  return points;
}

}  // namespace

TEST(MrScanDomain, CellIndicesBeyondInt32Throw) {
  // At Eps 0.1 the clumps' cell indices leave int32 on every grid a run
  // builds; cast unchecked, they land in one cell.
  const auto points = two_clumps(3e8, 6e8);
  for (const auto algo :
       {mrscan::cluster::ClusterAlgo::kTwoPass,
        mrscan::cluster::ClusterAlgo::kCellGraph}) {
    for (const std::size_t leaves : {1UL, 4UL}) {
      auto config = base_config(0.1, 10, leaves);
      config.cluster_algo = algo;
      EXPECT_THROW(mc::MrScan(config).run(points), std::invalid_argument)
          << mrscan::cluster::to_string(algo) << ", " << leaves << " leaves";
    }
  }
}

TEST(MrScanDomain, NonFiniteCoordinatesThrow) {
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    for (const bool in_x : {true, false}) {
      auto points = two_clumps(0.0, 1.0);
      (in_x ? points[17].x : points[17].y) = bad;
      for (const auto algo :
           {mrscan::cluster::ClusterAlgo::kTwoPass,
            mrscan::cluster::ClusterAlgo::kCellGraph}) {
        auto config = base_config(0.1, 10, 1);
        config.cluster_algo = algo;
        EXPECT_THROW(mc::MrScan(config).run(points), std::invalid_argument)
            << bad << (in_x ? " in x" : " in y");
      }
    }
  }
}

TEST(MrScanDomain, WideInputThatFitsClustersOnBothPaths) {
  // A hundred million Eps-cells apart: well inside int32 on every grid, so
  // the domain check must let it through, and both paths find both clumps.
  const auto points = two_clumps(-5e6, 5e6);
  for (const std::size_t leaves : {1UL, 4UL}) {
    auto config = base_config(0.1, 10, leaves);
    const auto two_pass = mc::MrScan(config).run(points);
    config.cluster_algo = mrscan::cluster::ClusterAlgo::kCellGraph;
    const auto cell_graph = mc::MrScan(config).run(points);
    EXPECT_EQ(two_pass.cluster_count, 2u) << leaves << " leaves";
    EXPECT_EQ(two_pass.output.size(), points.size());
    EXPECT_EQ(cell_graph.output, two_pass.output) << leaves << " leaves";
  }
}
