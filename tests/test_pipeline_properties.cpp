// Parameterized property sweeps over the end-to-end pipeline and the
// partitioner — the invariants that must hold for ANY (dataset, Eps,
// MinPts, leaves) combination, not just hand-picked cases.
#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

#include "core/mrscan.hpp"
#include "data/twitter.hpp"
#include "dbscan/sequential.hpp"
#include "index/grid.hpp"
#include "index/kdtree.hpp"
#include "partition/audit.hpp"
#include "partition/materialize.hpp"
#include "partition/partitioner.hpp"
#include "quality/dbdc.hpp"

namespace mg = mrscan::geom;
namespace md = mrscan::dbscan;
namespace mc = mrscan::core;
namespace mp = mrscan::partition;

// ---------------------------------------------------------------------
// Pipeline sweep: quality, output uniqueness, and cluster-count agreement
// across leaves x MinPts.
// ---------------------------------------------------------------------

struct PipelineCase {
  std::size_t leaves;
  std::size_t min_pts;
  std::uint64_t seed;
};

class PipelineSweep : public ::testing::TestWithParam<PipelineCase> {
 protected:
  void SetUp() override {
    mrscan::data::TwitterConfig tw;
    tw.num_points = 6000;
    tw.seed = GetParam().seed;
    points_ = mrscan::data::generate_twitter(tw);
    params_ = {0.1, GetParam().min_pts};

    mc::MrScanConfig config;
    config.params = params_;
    config.leaves = GetParam().leaves;
    config.partition_nodes = 2;
    config.keep_noise = true;
    result_ = mc::MrScan(config).run(points_);
  }

  mg::PointSet points_;
  md::DbscanParams params_;
  mc::MrScanResult result_;
};

TEST_P(PipelineSweep, QualityAtLeast995) {
  const auto ref = md::dbscan_sequential(points_, params_);
  const auto got = result_.labels_for(points_);
  EXPECT_GT(mrscan::quality::dbdc_quality(ref.cluster, got), 0.995);
}

TEST_P(PipelineSweep, ClusterCountMatchesReference) {
  const auto ref = md::dbscan_sequential(points_, params_);
  EXPECT_EQ(result_.cluster_count, ref.cluster_count());
}

TEST_P(PipelineSweep, EveryInputPointAppearsExactlyOnce) {
  ASSERT_EQ(result_.output.size(), points_.size());  // keep_noise = true
  std::unordered_set<mg::PointId> seen;
  for (const auto& record : result_.output) {
    EXPECT_TRUE(seen.insert(record.point.id).second);
  }
}

TEST_P(PipelineSweep, GlobalIdsAreDense) {
  std::unordered_set<md::ClusterId> ids;
  for (const auto& record : result_.output) {
    if (record.cluster >= 0) ids.insert(record.cluster);
  }
  EXPECT_EQ(ids.size(), result_.cluster_count);
  for (const auto id : ids) {
    EXPECT_LT(static_cast<std::size_t>(id), result_.cluster_count);
  }
}

INSTANTIATE_TEST_SUITE_P(
    LeavesByMinPts, PipelineSweep,
    ::testing::Values(PipelineCase{2, 4, 1}, PipelineCase{2, 40, 2},
                      PipelineCase{5, 4, 3}, PipelineCase{5, 40, 1},
                      PipelineCase{5, 100, 2}, PipelineCase{12, 4, 3},
                      PipelineCase{12, 40, 1}, PipelineCase{12, 100, 2}),
    [](const ::testing::TestParamInfo<PipelineCase>& info) {
      return "leaves" + std::to_string(info.param.leaves) + "_minpts" +
             std::to_string(info.param.min_pts) + "_seed" +
             std::to_string(info.param.seed);
    });

// ---------------------------------------------------------------------
// Partitioner sweep: structural invariants across part counts and seeds.
// ---------------------------------------------------------------------

struct PartitionerCase {
  std::size_t parts;
  std::uint64_t seed;
  bool rebalance;
};

class PartitionerSweep : public ::testing::TestWithParam<PartitionerCase> {
 protected:
  void SetUp() override {
    mrscan::data::TwitterConfig tw;
    tw.num_points = 15000;
    tw.seed = GetParam().seed;
    points_ = mrscan::data::generate_twitter(tw);
    geometry_ = mg::GridGeometry{mg::bbox_of(points_).min_x,
                                 mg::bbox_of(points_).min_y, 0.1};
    hist_ = mrscan::index::CellHistogram(geometry_, points_);
    config_ = mp::PartitionerConfig{GetParam().parts, 4, GetParam().rebalance,
                                    1.075};
    plan_ = mp::plan_partitions(hist_, geometry_, config_);
  }

  mg::PointSet points_;
  mg::GridGeometry geometry_;
  mrscan::index::CellHistogram hist_;
  mp::PartitionerConfig config_;
  mp::PartitionPlan plan_;
};

TEST_P(PartitionerSweep, PlanIsInternallyConsistent) {
  mp::audit_plan(plan_, hist_, config_, 0.0);
}

TEST_P(PartitionerSweep, NeighborhoodsAreCompleteWithinPartitions) {
  const mrscan::index::Grid grid(geometry_, points_);
  const auto segments = mp::materialize_partitions(plan_, grid, points_);
  // Sampled correctness check of §3.1.1: every owned point's full
  // Eps-neighbourhood is present in owned + shadow.
  const mrscan::index::KDTree tree(points_,
                                   mrscan::index::KDTreeConfig{64, 0.0});
  std::vector<std::uint32_t> neighbors;
  for (const auto& seg : segments) {
    std::unordered_set<mg::PointId> present;
    for (const auto& p : seg.owned) present.insert(p.id);
    for (const auto& p : seg.shadow) present.insert(p.id);
    for (std::size_t i = 0; i < seg.owned.size(); i += 37) {  // sample
      tree.radius_query(seg.owned[i], 0.1, neighbors);
      for (const std::uint32_t nb : neighbors) {
        EXPECT_TRUE(present.contains(points_[nb].id));
      }
    }
  }
}

TEST_P(PartitionerSweep, OwnedCountsSumToTotal) {
  EXPECT_EQ(plan_.total_owned_points(), points_.size());
}

INSTANTIATE_TEST_SUITE_P(
    PartsBySeed, PartitionerSweep,
    ::testing::Values(PartitionerCase{2, 1, true}, PartitionerCase{2, 2, false},
                      PartitionerCase{8, 1, true}, PartitionerCase{8, 3, false},
                      PartitionerCase{24, 2, true},
                      PartitionerCase{24, 3, true},
                      PartitionerCase{64, 1, true},
                      PartitionerCase{64, 2, false}),
    [](const ::testing::TestParamInfo<PartitionerCase>& info) {
      return "parts" + std::to_string(info.param.parts) + "_seed" +
             std::to_string(info.param.seed) +
             (info.param.rebalance ? "_reb" : "_noreb");
    });
