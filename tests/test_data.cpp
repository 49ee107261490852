#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "data/sdss.hpp"
#include "data/synthetic.hpp"
#include "data/twitter.hpp"
#include "geometry/bbox.hpp"

namespace mg = mrscan::geom;
namespace md = mrscan::data;

TEST(Twitter, GeneratesRequestedCountWithSequentialIds) {
  md::TwitterConfig config;
  config.num_points = 10000;
  const auto pts = md::generate_twitter(config, 100);
  ASSERT_EQ(pts.size(), 10000u);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(pts[i].id, 100 + i);
  }
}

TEST(Twitter, PointsStayInWindow) {
  md::TwitterConfig config;
  config.num_points = 20000;
  const auto pts = md::generate_twitter(config);
  for (const auto& p : pts) {
    EXPECT_TRUE(config.window.contains(p)) << p.x << "," << p.y;
  }
}

TEST(Twitter, DeterministicAcrossCalls) {
  md::TwitterConfig config;
  config.num_points = 5000;
  const auto a = md::generate_twitter(config);
  const auto b = md::generate_twitter(config);
  EXPECT_EQ(a, b);
}

TEST(Twitter, DensityIsHeavyTailed) {
  // The point of the Twitter model: a few cells are far denser than the
  // mean cell — the load-imbalance regime the paper targets.
  md::TwitterConfig config;
  config.num_points = 200000;
  const auto hist = md::twitter_histogram(config, 0.1, config.num_points);
  const double mean = static_cast<double>(hist.total_points()) /
                      static_cast<double>(hist.cell_count());
  std::uint64_t max_count = 0;
  for (const auto& e : hist.entries()) {
    max_count = std::max(max_count, e.count);
  }
  EXPECT_GT(static_cast<double>(max_count), 20.0 * mean);
}

TEST(Twitter, ScaledHistogramPreservesTotalApproximately) {
  md::TwitterConfig config;
  config.num_points = 2'000'000;  // virtual size
  const auto hist = md::twitter_histogram(config, 0.1, 100'000);
  const double total = static_cast<double>(hist.total_points());
  EXPECT_NEAR(total / 2e6, 1.0, 0.1);
}

TEST(Sdss, GeneratesRequestedCount) {
  md::SdssConfig config;
  config.num_points = 5000;
  const auto pts = md::generate_sdss(config);
  EXPECT_EQ(pts.size(), 5000u);
  for (const auto& p : pts) EXPECT_TRUE(config.window.contains(p));
}

TEST(Sdss, ObjectsAreCompactAtEpsScale) {
  // Most points should have a same-object companion within Eps = 0.00015.
  md::SdssConfig config;
  config.num_points = 20000;
  config.background_fraction = 0.0;
  const auto pts = md::generate_sdss(config);
  const double eps = 0.00015;
  std::size_t with_near_neighbor = 0;
  // Objects are emitted consecutively, so checking a small id window is
  // enough to find a same-object companion.
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const std::size_t lo = i >= 25 ? i - 25 : 0;
    const std::size_t hi = std::min(pts.size(), i + 25);
    for (std::size_t j = lo; j < hi; ++j) {
      if (j != i && mg::within_eps(pts[i], pts[j], eps)) {
        ++with_near_neighbor;
        break;
      }
    }
  }
  EXPECT_GT(with_near_neighbor, pts.size() * 7 / 10);
}

TEST(Sdss, Deterministic) {
  md::SdssConfig config;
  config.num_points = 3000;
  EXPECT_EQ(md::generate_sdss(config), md::generate_sdss(config));
}

TEST(Synthetic, UniformPointsInWindow) {
  const mg::BBox w{-1.0, -2.0, 3.0, 4.0};
  const auto pts = md::uniform_points(1000, w, 17);
  EXPECT_EQ(pts.size(), 1000u);
  for (const auto& p : pts) EXPECT_TRUE(w.contains(p));
}

TEST(Synthetic, GaussianBlobsProduceTruthLabels) {
  std::vector<md::Blob> blobs{{0.0, 0.0, 0.1, 500}, {10.0, 10.0, 0.1, 300}};
  std::vector<int> truth;
  const auto pts = md::gaussian_blobs(blobs, 200,
                                      mg::BBox{-20.0, -20.0, 20.0, 20.0}, 21,
                                      &truth);
  ASSERT_EQ(pts.size(), 1000u);
  ASSERT_EQ(truth.size(), 1000u);
  EXPECT_EQ(std::count(truth.begin(), truth.end(), 0), 500);
  EXPECT_EQ(std::count(truth.begin(), truth.end(), 1), 300);
  EXPECT_EQ(std::count(truth.begin(), truth.end(), -1), 200);
  // Blob 0 points should be near its centre.
  for (std::size_t i = 0; i < 500; ++i) {
    EXPECT_LT(std::abs(pts[i].x), 1.0);
    EXPECT_LT(std::abs(pts[i].y), 1.0);
  }
}

TEST(Synthetic, AnnulusRespectsRadii) {
  const auto pts = md::annulus(2000, 1.0, -1.0, 2.0, 3.0, 23);
  for (const auto& p : pts) {
    const double r = std::hypot(p.x - 1.0, p.y + 1.0);
    EXPECT_GE(r, 2.0 - 1e-9);
    EXPECT_LE(r, 3.0 + 1e-9);
  }
}

TEST(Synthetic, AnnulusIsNonConvexShape) {
  // The hole must be empty: no points within r_inner of the centre.
  const auto pts = md::annulus(2000, 0.0, 0.0, 1.0, 1.5, 29);
  for (const auto& p : pts) {
    EXPECT_GE(std::hypot(p.x, p.y), 1.0 - 1e-9);
  }
}
