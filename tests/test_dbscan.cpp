#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "dbscan/sequential.hpp"
#include "geometry/point.hpp"

namespace mg = mrscan::geom;
namespace md = mrscan::dbscan;

namespace {

/// Brute-force DBSCAN core flags, as an oracle.
std::vector<std::uint8_t> brute_core(const mg::PointSet& pts,
                                     const md::DbscanParams& params) {
  std::vector<std::uint8_t> core(pts.size(), 0);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    std::size_t count = 0;
    for (std::size_t j = 0; j < pts.size(); ++j) {
      if (mg::within_eps(pts[i], pts[j], params.eps)) ++count;
    }
    core[i] = count >= params.min_pts ? 1 : 0;
  }
  return core;
}

mg::PointSet two_blob_data(std::vector<int>* truth = nullptr) {
  std::vector<mrscan::data::Blob> blobs{{0.0, 0.0, 0.3, 300},
                                        {10.0, 10.0, 0.3, 300}};
  return mrscan::data::gaussian_blobs(blobs, 0,
                                      mg::BBox{-5.0, -5.0, 15.0, 15.0}, 42,
                                      truth);
}

}  // namespace

TEST(SequentialDbscan, FindsTwoSeparatedBlobs) {
  std::vector<int> truth;
  const auto pts = two_blob_data(&truth);
  const auto labels =
      md::dbscan_sequential(pts, md::DbscanParams{0.3, 4});
  EXPECT_EQ(labels.cluster_count(), 2u);
  // Every point in blob 0 shares a label; likewise blob 1; labels differ.
  const md::ClusterId c0 = labels.cluster[0];
  const md::ClusterId c1 = labels.cluster[300];
  EXPECT_NE(c0, c1);
  std::size_t misplaced = 0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const md::ClusterId expect = truth[i] == 0 ? c0 : c1;
    if (labels.cluster[i] != expect) ++misplaced;
  }
  // Gaussian tails may create a handful of noise points, nothing more.
  EXPECT_LT(misplaced, 10u);
}

TEST(SequentialDbscan, UniformSparseIsAllNoise) {
  const auto pts = mrscan::data::uniform_points(
      200, mg::BBox{0.0, 0.0, 100.0, 100.0}, 7);
  const auto labels = md::dbscan_sequential(pts, md::DbscanParams{0.5, 5});
  EXPECT_EQ(labels.cluster_count(), 0u);
  EXPECT_EQ(labels.noise_count(), pts.size());
}

TEST(SequentialDbscan, SinglePointIsNoiseUnlessMinPtsOne) {
  mg::PointSet one{{0, 1.0, 1.0, 1.0f}};
  auto noise = md::dbscan_sequential(one, md::DbscanParams{1.0, 2});
  EXPECT_EQ(noise.cluster[0], md::kNoise);
  auto solo = md::dbscan_sequential(one, md::DbscanParams{1.0, 1});
  EXPECT_EQ(solo.cluster[0], 0);
  EXPECT_TRUE(solo.core[0]);
}

TEST(SequentialDbscan, EmptyInput) {
  const auto labels = md::dbscan_sequential({}, md::DbscanParams{1.0, 4});
  EXPECT_EQ(labels.size(), 0u);
  EXPECT_EQ(labels.cluster_count(), 0u);
}

TEST(SequentialDbscan, CoreFlagsMatchBruteForce) {
  const auto pts = mrscan::data::uniform_points(
      400, mg::BBox{0.0, 0.0, 10.0, 10.0}, 13);
  const md::DbscanParams params{0.8, 5};
  const auto labels = md::dbscan_sequential(pts, params);
  const auto expected = brute_core(pts, params);
  EXPECT_EQ(labels.core, expected);
}

TEST(SequentialDbscan, BorderPointsJoinACluster) {
  // A line of core points with one outlier just within eps of the end:
  // the outlier is a border point (non-core but clustered).
  mg::PointSet pts;
  for (int i = 0; i < 10; ++i)
    pts.push_back({static_cast<mg::PointId>(i), i * 0.5, 0.0, 1.0f});
  pts.push_back({10, 4.5 + 0.9, 0.0, 1.0f});  // borders the last core point
  const auto labels = md::dbscan_sequential(pts, md::DbscanParams{1.0, 3});
  EXPECT_EQ(labels.cluster_count(), 1u);
  EXPECT_GE(labels.cluster[10], 0);
  EXPECT_FALSE(labels.core[10]);
}

TEST(SequentialDbscan, AnnulusFormsSingleNonConvexCluster) {
  const auto pts = mrscan::data::annulus(3000, 0.0, 0.0, 4.0, 4.5, 31);
  const auto labels = md::dbscan_sequential(pts, md::DbscanParams{0.3, 4});
  EXPECT_EQ(labels.cluster_count(), 1u);
  EXPECT_LT(labels.noise_count(), 30u);
}

TEST(SequentialDbscan, NoiseRelabelledAsBorderWhenReachedLater) {
  // Point visited first looks like noise, then a later cluster claims it.
  mg::PointSet pts;
  pts.push_back({0, 0.0, 0.0, 1.0f});  // border-to-be, visited first
  for (int i = 0; i < 5; ++i)
    pts.push_back({static_cast<mg::PointId>(i + 1), 0.9 + 0.05 * i, 0.0,
                   1.0f});
  const auto labels = md::dbscan_sequential(pts, md::DbscanParams{1.0, 5});
  EXPECT_GE(labels.cluster[0], 0);
  EXPECT_FALSE(labels.core[0]);
}

TEST(Labeling, RenumberCompactsIds) {
  md::Labeling l;
  l.cluster = {7, 7, md::kNoise, 3, 3, 9, md::kUnclassified};
  l.renumber();
  EXPECT_EQ(l.cluster,
            (std::vector<md::ClusterId>{0, 0, md::kNoise, 1, 1, 2,
                                        md::kUnclassified}));
  EXPECT_EQ(l.cluster_count(), 3u);
  EXPECT_EQ(l.noise_count(), 1u);
}
