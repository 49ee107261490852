#include <gtest/gtest.h>

#include <map>

#include "data/synthetic.hpp"
#include "data/twitter.hpp"
#include "dbscan/sequential.hpp"
#include "gpu/cuda_dclust.hpp"
#include "gpu/dense_box.hpp"
#include "gpu/device.hpp"
#include "gpu/mrscan_gpu.hpp"
#include "quality/dbdc.hpp"
#include "util/rng.hpp"

namespace mg = mrscan::geom;
namespace md = mrscan::dbscan;
namespace gpu = mrscan::gpu;

namespace {

mg::PointSet blob_data(std::uint64_t seed = 42) {
  std::vector<mrscan::data::Blob> blobs{
      {0.0, 0.0, 0.3, 400}, {10.0, 10.0, 0.3, 400}, {0.0, 10.0, 0.2, 200}};
  return mrscan::data::gaussian_blobs(
      blobs, 100, mg::BBox{-5.0, -5.0, 15.0, 15.0}, seed);
}

/// Clusters-as-partition equivalence over core points only (border ties
/// are order-dependent in any DBSCAN, so they are compared via DBDC).
void expect_same_core_partition(const md::Labeling& a, const md::Labeling& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.core, b.core);
  std::map<md::ClusterId, md::ClusterId> fwd, bwd;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!a.core[i]) continue;
    ASSERT_GE(a.cluster[i], 0) << "core point not clustered (a) at " << i;
    ASSERT_GE(b.cluster[i], 0) << "core point not clustered (b) at " << i;
    auto [fit, fnew] = fwd.emplace(a.cluster[i], b.cluster[i]);
    EXPECT_EQ(fit->second, b.cluster[i]) << "split cluster at point " << i;
    auto [bit, bnew] = bwd.emplace(b.cluster[i], a.cluster[i]);
    EXPECT_EQ(bit->second, a.cluster[i]) << "merged cluster at point " << i;
  }
}

}  // namespace

TEST(VirtualDevice, TransfersAccumulateTimeAndBytes) {
  gpu::VirtualDevice device;
  device.copy_to_device(6'000'000'000ULL);  // 1 second at 6 GB/s
  EXPECT_NEAR(device.stats().transfer_seconds, 1.0,
              0.01);  // latency is negligible here
  device.copy_to_host(100);
  EXPECT_EQ(device.stats().h2d_transfers, 1u);
  EXPECT_EQ(device.stats().d2h_transfers, 1u);
  EXPECT_EQ(device.stats().h2d_bytes, 6'000'000'000ULL);
}

TEST(VirtualDevice, LaunchSchedulesBlocksOntoSms) {
  gpu::DeviceSpec spec;
  spec.sm_count = 2;
  spec.block_op_rate = 1000.0;
  spec.kernel_launch_overhead_s = 0.0;
  gpu::VirtualDevice device(spec);
  // 3 blocks of 1000 ops on 2 SMs -> two waves -> 2 seconds.
  device.account_launch({1000, 1000, 1000});
  EXPECT_NEAR(device.stats().kernel_seconds, 2.0, 1e-9);
  EXPECT_EQ(device.stats().total_ops, 3000u);
  EXPECT_EQ(device.stats().blocks_executed, 3u);
}

TEST(VirtualDevice, StragglerBlockDominatesKernelTime) {
  gpu::DeviceSpec spec;
  spec.sm_count = 4;
  spec.block_op_rate = 1000.0;
  spec.kernel_launch_overhead_s = 0.0;
  gpu::VirtualDevice device(spec);
  // One block with 10x the work of the others stalls the kernel — the
  // load-imbalance effect dense boxes exist to fix.
  device.account_launch({10000, 1000, 1000, 1000});
  EXPECT_NEAR(device.stats().kernel_seconds, 10.0, 1e-9);
}

TEST(DenseBox, DetectsDenseLeafAndCoversPoints) {
  // 500 points crammed into a tiny square, eps chosen so the square fits
  // the (sqrt(2)/2) * eps bound.
  const auto pts = mrscan::data::uniform_points(
      500, mg::BBox{0.0, 0.0, 0.05, 0.05}, 5);
  const double eps = 0.1;
  mrscan::index::KDTree tree(
      pts, mrscan::index::KDTreeConfig{64, gpu::dense_box_side(eps)});
  const auto dense = gpu::detect_dense_boxes(tree, eps, 10);
  ASSERT_EQ(dense.count(), 1u);
  EXPECT_EQ(dense.covered_points, 500u);
  for (std::uint32_t i = 0; i < 500; ++i) EXPECT_TRUE(dense.is_dense(i));
}

TEST(DenseBox, SparseDataHasNoDenseBoxes) {
  const auto pts = mrscan::data::uniform_points(
      300, mg::BBox{0.0, 0.0, 100.0, 100.0}, 6);
  const double eps = 0.1;
  mrscan::index::KDTree tree(
      pts, mrscan::index::KDTreeConfig{64, gpu::dense_box_side(eps)});
  const auto dense = gpu::detect_dense_boxes(tree, eps, 4);
  EXPECT_EQ(dense.count(), 0u);
  EXPECT_EQ(dense.covered_points, 0u);
}

TEST(DenseBox, DensePointsAreTrulyCore) {
  // Every dense-box point must be a genuine DBSCAN core point.
  const auto pts = blob_data();
  const md::DbscanParams params{0.3, 10};
  mrscan::index::KDTree tree(
      pts, mrscan::index::KDTreeConfig{64, gpu::dense_box_side(params.eps)});
  const auto dense = gpu::detect_dense_boxes(tree, params.eps, params.min_pts);
  const auto ref = md::dbscan_sequential(pts, params);
  for (std::uint32_t i = 0; i < pts.size(); ++i) {
    if (dense.is_dense(i)) {
      EXPECT_TRUE(ref.core[i]) << "dense point " << i << " is not core";
    }
  }
}

TEST(MrScanGpu, MatchesSequentialCoreStructureOnBlobs) {
  const auto pts = blob_data();
  const md::DbscanParams params{0.3, 4};
  const auto ref = md::dbscan_sequential(pts, params);
  gpu::VirtualDevice device;
  gpu::MrScanGpuConfig config;
  config.params = params;
  const auto got = gpu::mrscan_gpu_dbscan(pts, config, device);
  expect_same_core_partition(ref, got.labels);
  EXPECT_EQ(ref.cluster_count(), got.labels.cluster_count());
}

TEST(MrScanGpu, HighQualityVersusSequentialAcrossMinPts) {
  const auto pts = blob_data(7);
  for (const std::size_t min_pts : {4UL, 10UL, 40UL}) {
    const md::DbscanParams params{0.3, min_pts};
    const auto ref = md::dbscan_sequential(pts, params);
    gpu::VirtualDevice device;
    gpu::MrScanGpuConfig config;
    config.params = params;
    const auto got = gpu::mrscan_gpu_dbscan(pts, config, device);
    const double q =
        mrscan::quality::dbdc_quality(ref.cluster, got.labels.cluster);
    EXPECT_GT(q, 0.995) << "min_pts=" << min_pts;
  }
}

TEST(MrScanGpu, DenseBoxOffStillCorrect) {
  const auto pts = blob_data(9);
  const md::DbscanParams params{0.3, 4};
  const auto ref = md::dbscan_sequential(pts, params);
  gpu::VirtualDevice device;
  gpu::MrScanGpuConfig config;
  config.params = params;
  config.dense_box = false;
  const auto got = gpu::mrscan_gpu_dbscan(pts, config, device);
  expect_same_core_partition(ref, got.labels);
  EXPECT_EQ(got.stats.dense_boxes, 0u);
}

TEST(MrScanGpu, DenseBoxReducesDistanceOps) {
  // Dense data: the optimisation must eliminate points and reduce work.
  mrscan::data::TwitterConfig tw;
  tw.num_points = 20000;
  const auto pts = mrscan::data::generate_twitter(tw);
  const md::DbscanParams params{0.1, 40};

  gpu::MrScanGpuConfig config;
  config.params = params;

  gpu::VirtualDevice dev_on;
  const auto with_box = gpu::mrscan_gpu_dbscan(pts, config, dev_on);

  config.dense_box = false;
  gpu::VirtualDevice dev_off;
  const auto without_box = gpu::mrscan_gpu_dbscan(pts, config, dev_off);

  EXPECT_GT(with_box.stats.dense_points, 500u);
  EXPECT_LT(with_box.stats.distance_ops, without_box.stats.distance_ops);
  EXPECT_LT(with_box.stats.device_seconds, without_box.stats.device_seconds);
  // And both produce the same clustering quality vs the reference.
  const auto ref = md::dbscan_sequential(pts, params);
  EXPECT_GT(mrscan::quality::dbdc_quality(ref.cluster,
                                          with_box.labels.cluster),
            0.99);
}

TEST(MrScanGpu, SingleRoundTripTransfers) {
  const auto pts = blob_data(11);
  gpu::VirtualDevice device;
  gpu::MrScanGpuConfig config;
  config.params = {0.3, 4};
  const auto got = gpu::mrscan_gpu_dbscan(pts, config, device);
  // One input copy down, one result copy up — independent of point count.
  EXPECT_EQ(got.stats.h2d_transfers, 1u);
  EXPECT_EQ(got.stats.d2h_transfers, 1u);
}

TEST(MrScanGpu, EmptyAndTinyInputs) {
  gpu::VirtualDevice device;
  gpu::MrScanGpuConfig config;
  config.params = {1.0, 3};
  const auto empty = gpu::mrscan_gpu_dbscan({}, config, device);
  EXPECT_EQ(empty.labels.size(), 0u);

  mg::PointSet two{{0, 0.0, 0.0, 1.0f}, {1, 0.5, 0.0, 1.0f}};
  const auto tiny = gpu::mrscan_gpu_dbscan(two, config, device);
  EXPECT_EQ(tiny.labels.cluster[0], md::kNoise);
  EXPECT_EQ(tiny.labels.cluster[1], md::kNoise);
}

TEST(MrScanGpu, AdjacentDenseBoxesMergeIntoOneCluster) {
  // Two tight clumps within eps of each other but each fitting in its own
  // dense box: without the dense-box connectivity step they would wrongly
  // be two clusters.
  mg::PointSet pts;
  mg::PointId id = 0;
  mrscan::util::Rng rng(3);
  for (int c = 0; c < 2; ++c) {
    const double cx = c * 0.08;  // gap below eps
    for (int i = 0; i < 100; ++i) {
      pts.push_back({id++, cx + rng.uniform(0.0, 0.02),
                     rng.uniform(0.0, 0.02), 1.0f});
    }
  }
  const md::DbscanParams params{0.1, 20};
  gpu::VirtualDevice device;
  gpu::MrScanGpuConfig config;
  config.params = params;
  config.max_leaf_points = 32;  // force the clumps into separate leaves
  const auto got = gpu::mrscan_gpu_dbscan(pts, config, device);
  EXPECT_GE(got.stats.dense_boxes, 2u);
  EXPECT_EQ(got.labels.cluster_count(), 1u);
  const auto ref = md::dbscan_sequential(pts, params);
  EXPECT_EQ(ref.cluster_count(), 1u);
}

TEST(CudaDClust, MatchesSequentialOnBlobs) {
  const auto pts = blob_data(13);
  const md::DbscanParams params{0.3, 4};
  const auto ref = md::dbscan_sequential(pts, params);
  gpu::VirtualDevice device;
  gpu::CudaDClustConfig config;
  config.params = params;
  const auto got = gpu::cuda_dclust(pts, config, device);
  EXPECT_EQ(ref.core, got.labels.core);
  EXPECT_EQ(ref.cluster_count(), got.labels.cluster_count());
  const double q =
      mrscan::quality::dbdc_quality(ref.cluster, got.labels.cluster);
  EXPECT_GT(q, 0.98);  // queued-point collisions allow slight divergence
}

TEST(CudaDClust, PerIterationCopiesScaleWithPoints) {
  // The flaw Mr. Scan fixes: copies grow with points / blockCount.
  const auto pts = blob_data(17);
  gpu::VirtualDevice device;
  gpu::CudaDClustConfig config;
  config.params = {0.3, 4};
  config.block_count = 16;
  const auto got = gpu::cuda_dclust(pts, config, device);
  const std::uint64_t copies =
      got.stats.h2d_transfers + got.stats.d2h_transfers;
  // At least 2 x (points / blockCount) copies (one H2D + one D2H per
  // iteration; expansion adds iterations beyond the seed count).
  EXPECT_GE(copies, 2 * pts.size() / config.block_count);
}

TEST(CudaDClust, MrScanNeedsFarFewerTransfers) {
  const auto pts = blob_data(19);
  const md::DbscanParams params{0.3, 4};

  gpu::VirtualDevice dev_a;
  gpu::CudaDClustConfig dclust;
  dclust.params = params;
  const auto base = gpu::cuda_dclust(pts, dclust, dev_a);

  gpu::VirtualDevice dev_b;
  gpu::MrScanGpuConfig mrscan;
  mrscan.params = params;
  const auto ours = gpu::mrscan_gpu_dbscan(pts, mrscan, dev_b);

  EXPECT_LT(ours.stats.h2d_transfers + ours.stats.d2h_transfers,
            (base.stats.h2d_transfers + base.stats.d2h_transfers) / 10);
}

TEST(CudaDClust, UniformNoiseAllNoise) {
  const auto pts = mrscan::data::uniform_points(
      300, mg::BBox{0.0, 0.0, 100.0, 100.0}, 21);
  gpu::VirtualDevice device;
  gpu::CudaDClustConfig config;
  config.params = {0.5, 5};
  const auto got = gpu::cuda_dclust(pts, config, device);
  EXPECT_EQ(got.labels.cluster_count(), 0u);
  EXPECT_EQ(got.labels.noise_count(), pts.size());
}
