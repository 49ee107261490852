// Edge-case and failure-injection tests across modules: malformed files,
// degenerate configurations, ops accounting, and weight propagation.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "core/mrscan.hpp"
#include "data/synthetic.hpp"
#include "gpu/device.hpp"
#include "index/kdtree.hpp"
#include "io/point_file.hpp"
#include "util/rng.hpp"

namespace mg = mrscan::geom;
namespace fs = std::filesystem;

TEST(DeviceEdge, RejectsInvalidSpecs) {
  mrscan::gpu::DeviceSpec spec;
  spec.sm_count = 0;
  EXPECT_THROW(mrscan::gpu::VirtualDevice{spec}, std::invalid_argument);
  spec = {};
  spec.block_op_rate = 0.0;
  EXPECT_THROW(mrscan::gpu::VirtualDevice{spec}, std::invalid_argument);
  spec = {};
  spec.pcie_bandwidth_bps = -1.0;
  EXPECT_THROW(mrscan::gpu::VirtualDevice{spec}, std::invalid_argument);
}

TEST(DeviceEdge, EmptyLaunchChargesOnlyOverhead) {
  mrscan::gpu::DeviceSpec spec;
  spec.kernel_launch_overhead_s = 1.0;
  mrscan::gpu::VirtualDevice device(spec);
  device.account_launch({});
  EXPECT_DOUBLE_EQ(device.stats().kernel_seconds, 1.0);
  EXPECT_EQ(device.stats().blocks_executed, 0u);
}

TEST(KDTreeEdge, OpsCounterTracksDistanceComputations) {
  const auto pts = mrscan::data::uniform_points(
      500, mg::BBox{0.0, 0.0, 5.0, 5.0}, 1);
  mrscan::index::KDTree tree(pts, mrscan::index::KDTreeConfig{32, 0.0});
  std::uint64_t ops = 0;
  tree.count_in_radius(pts[0], 0.5, 0, &ops);
  EXPECT_GT(ops, 0u);
  EXPECT_LE(ops, pts.size());

  // Early exit must do no more work than the exact count.
  std::uint64_t ops_exact = 0, ops_early = 0;
  tree.count_in_radius(pts[0], 2.0, 0, &ops_exact);
  tree.count_in_radius(pts[0], 2.0, 1, &ops_early);
  EXPECT_LE(ops_early, ops_exact);

  std::vector<std::uint32_t> out;
  std::uint64_t query_ops = 0;
  tree.radius_query(pts[0], 2.0, out, &query_ops);
  EXPECT_EQ(query_ops, ops_exact);  // same traversal, no early exit
}

TEST(IoEdge, TruncatedBinaryFileThrows) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("mrscan_edge_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const auto pts = mrscan::data::uniform_points(
      100, mg::BBox{0.0, 0.0, 1.0, 1.0}, 2);
  const fs::path path = dir / "trunc.bin";
  mrscan::io::write_points_binary(path, pts);

  // Chop the file mid-record: header still promises 100 points.
  const auto full_size = fs::file_size(path);
  fs::resize_file(path, full_size - 50);
  EXPECT_THROW(mrscan::io::read_points_binary(path), std::runtime_error);
  fs::remove_all(dir);
}

TEST(PipelineEdge, WeightsSurviveToOutput) {
  // Every input weight must appear unchanged on its output record.
  mg::PointSet points;
  mrscan::util::Rng rng(3);
  for (mg::PointId id = 0; id < 2000; ++id) {
    points.push_back(mg::Point{id, rng.uniform(0.0, 2.0),
                               rng.uniform(0.0, 2.0),
                               static_cast<float>(id % 17) + 0.5f});
  }
  mrscan::core::MrScanConfig config;
  config.params = {0.2, 4};
  config.leaves = 4;
  config.keep_noise = true;
  const auto result = mrscan::core::MrScan(config).run(points);
  ASSERT_EQ(result.output.size(), points.size());
  for (const auto& record : result.output) {
    EXPECT_FLOAT_EQ(record.point.weight,
                    static_cast<float>(record.point.id % 17) + 0.5f);
  }
}

TEST(PipelineEdge, AllPointsIdentical) {
  // A pathological single-location dataset: one dense box, one cluster.
  mg::PointSet points;
  for (mg::PointId id = 0; id < 500; ++id) {
    points.push_back(mg::Point{id, 1.0, 1.0, 1.0f});
  }
  mrscan::core::MrScanConfig config;
  config.params = {0.1, 4};
  config.leaves = 4;
  const auto result = mrscan::core::MrScan(config).run(points);
  EXPECT_EQ(result.cluster_count, 1u);
  EXPECT_EQ(result.output.size(), points.size());
}

TEST(PipelineEdge, MorePartitionNodesThanPoints) {
  const auto points = mrscan::data::uniform_points(
      10, mg::BBox{0.0, 0.0, 1.0, 1.0}, 4);
  mrscan::core::MrScanConfig config;
  config.params = {0.3, 2};
  config.leaves = 4;
  config.partition_nodes = 64;  // more workers than data
  const auto result = mrscan::core::MrScan(config).run(points);
  EXPECT_LE(result.leaves_used, 4u);
}

TEST(PipelineEdge, InvalidConfigsThrow) {
  mrscan::core::MrScanConfig config;
  config.params = {0.0, 4};
  EXPECT_THROW(mrscan::core::MrScan{config}, std::invalid_argument);
  config.params = {0.1, 0};
  EXPECT_THROW(mrscan::core::MrScan{config}, std::invalid_argument);
  config.params = {0.1, 4};
  config.leaves = 0;
  EXPECT_THROW(mrscan::core::MrScan{config}, std::invalid_argument);
}
