// Adversarial property suite for the BVH backend (DESIGN §13), mirroring
// the KD-tree suite in test_index.cpp: the two backends share the engine
// contract (allocation-free scratch queries, inclusive Eps boundary,
// deterministic neighbour order, ops accounting), so every property the
// KD-tree is held to, the BVH is held to as well — plus the fused
// for_each_in_radius path, which must visit exactly the neighbours the
// materializing query returns, in the same order, at the same ops charge.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <span>
#include <vector>

#include "data/synthetic.hpp"
#include "geometry/point.hpp"
#include "index/bvh.hpp"
#include "index/query_scratch.hpp"
#include "util/rng.hpp"

namespace mg = mrscan::geom;
namespace mi = mrscan::index;

namespace {

std::set<std::uint32_t> brute_radius(const mg::PointSet& pts,
                                     const mg::Point& q, double r) {
  std::set<std::uint32_t> out;
  for (std::uint32_t i = 0; i < pts.size(); ++i) {
    if (mg::dist2(q, pts[i]) <= r * r) out.insert(i);
  }
  return out;
}

mg::PointSet random_points(std::size_t n, std::uint64_t seed,
                           double extent = 10.0) {
  return mrscan::data::uniform_points(n, mg::BBox{0.0, 0.0, extent, extent},
                                      seed);
}

}  // namespace

TEST(BVH, LeavesPartitionThePoints) {
  const auto pts = random_points(2000, 50);
  mi::BVH tree(pts, mi::BVHConfig{32, 0.0});
  std::size_t total = 0;
  std::set<std::uint32_t> seen;
  for (const auto& leaf : tree.leaves()) {
    total += leaf.size();
    EXPECT_LE(leaf.size(), 32u);
    for (std::uint32_t i = leaf.begin; i < leaf.end; ++i) {
      EXPECT_TRUE(seen.insert(tree.order()[i]).second);
      EXPECT_TRUE(leaf.box.contains(pts[tree.order()[i]]));
    }
  }
  EXPECT_EQ(total, pts.size());
}

TEST(BVH, RadiusQueryMatchesBruteForce) {
  const auto pts = random_points(1500, 52);
  mi::BVH tree(pts, mi::BVHConfig{24, 0.0});
  mi::QueryScratch scratch;
  mrscan::util::Rng rng(53);
  for (int trial = 0; trial < 50; ++trial) {
    const mg::Point q{0, rng.uniform(-1.0, 11.0), rng.uniform(-1.0, 11.0),
                      1.0f};
    const double r = rng.uniform(0.05, 2.0);
    const auto out = tree.radius_query(q, r, scratch);
    std::set<std::uint32_t> got(out.begin(), out.end());
    EXPECT_EQ(got.size(), out.size()) << "duplicates returned";
    EXPECT_EQ(got, brute_radius(pts, q, r));
  }
}

TEST(BVH, CountInRadiusMatchesAndEarlyExits) {
  const auto pts = random_points(1000, 54);
  mi::BVH tree(pts, mi::BVHConfig{24, 0.0});
  mi::QueryScratch scratch;
  const mg::Point q{0, 5.0, 5.0, 1.0f};
  const std::size_t exact = tree.count_in_radius(q, 1.5, scratch);
  EXPECT_EQ(exact, brute_radius(pts, q, 1.5).size());
  if (exact >= 5) {
    EXPECT_EQ(tree.count_in_radius(q, 1.5, scratch, 5), 5u);
  }
  EXPECT_EQ(tree.count_in_radius(q, 1.5, scratch, exact + 10), exact);
}

TEST(BVH, MinLeafExtentStopsSplittingDenseRegions) {
  // Same property as the KD-tree: 5000 points in a 0.01 x 0.01 square with
  // min_leaf_extent 0.1 must stay a single leaf.
  mg::PointSet pts = random_points(5000, 55, 0.01);
  mi::BVH tree(pts, mi::BVHConfig{32, 0.1});
  EXPECT_EQ(tree.leaves().size(), 1u);
  EXPECT_EQ(tree.leaves()[0].size(), 5000u);
}

TEST(BVH, EmptyAndSingleton) {
  mg::PointSet empty;
  mi::BVH t0(empty, mi::BVHConfig{});
  EXPECT_EQ(t0.leaves().size(), 0u);
  EXPECT_EQ(t0.count_in_radius(mg::Point{0, 0, 0, 1.0f}, 1.0), 0u);

  mg::PointSet one{{7, 1.0, 1.0, 1.0f}};
  mi::BVH t1(one, mi::BVHConfig{});
  EXPECT_EQ(t1.leaves().size(), 1u);
  EXPECT_EQ(t1.count_in_radius(mg::Point{0, 1.2, 1.0, 1.0f}, 0.3), 1u);
  EXPECT_EQ(t1.count_in_radius(mg::Point{0, 2.0, 1.0, 1.0f}, 0.3), 0u);
}

TEST(BVHAdversarial, DuplicatePointsMatchBruteForce) {
  // Every point appears 4 times; identical Morton codes stress the
  // index-tiebreak sort and median splits, and result sets must still
  // match the oracle exactly.
  mg::PointSet pts;
  mrscan::util::Rng rng(60);
  for (std::uint32_t i = 0; i < 300; ++i) {
    const double x = rng.uniform(0.0, 4.0);
    const double y = rng.uniform(0.0, 4.0);
    for (int copy = 0; copy < 4; ++copy) {
      pts.push_back(mg::Point{pts.size(), x, y, 1.0f});
    }
  }
  mi::BVH tree(pts, mi::BVHConfig{8, 0.0});
  mi::QueryScratch scratch;
  for (int trial = 0; trial < 40; ++trial) {
    const mg::Point q{0, rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0), 1.0f};
    const double r = rng.uniform(0.1, 1.5);
    const auto got = tree.radius_query(q, r, scratch);
    EXPECT_EQ(std::set<std::uint32_t>(got.begin(), got.end()),
              brute_radius(pts, q, r));
    EXPECT_EQ(tree.count_in_radius(q, r, scratch), got.size());
  }
}

TEST(BVHAdversarial, AllIdenticalCoordinatesHitDepthCap) {
  // Identical coordinates give every point the same Morton code; the build
  // must bottom out at the depth cap instead of recursing forever, and
  // queries must still see every point.
  constexpr std::size_t kN = 4096;
  mg::PointSet pts;
  for (std::size_t i = 0; i < kN; ++i) {
    pts.push_back(mg::Point{i, 2.5, 2.5, 1.0f});
  }
  mi::BVH tree(pts, mi::BVHConfig{2, 0.0});
  mi::QueryScratch scratch;
  EXPECT_EQ(tree.radius_query(pts[0], 0.1, scratch).size(), kN);
  EXPECT_EQ(tree.count_in_radius(pts[0], 0.1, scratch), kN);
  EXPECT_EQ(tree.count_in_radius(mg::Point{0, 5.0, 5.0, 1.0f}, 0.1, scratch),
            0u);
}

TEST(BVHAdversarial, PointsExactlyAtEpsAreInclusive) {
  // Unit-grid points: axis neighbours sit at exactly Eps = 1.0, diagonals
  // at sqrt(2) > Eps. The boundary must be inclusive (d <= Eps).
  mg::PointSet pts;
  for (std::int32_t x = 0; x < 8; ++x) {
    for (std::int32_t y = 0; y < 8; ++y) {
      pts.push_back(
          mg::Point{pts.size(), static_cast<double>(x),
                    static_cast<double>(y), 1.0f});
    }
  }
  mi::BVH tree(pts, mi::BVHConfig{4, 0.0});
  mi::QueryScratch scratch;
  for (std::uint32_t i = 0; i < pts.size(); ++i) {
    const auto got = tree.radius_query(pts[i], 1.0, scratch);
    EXPECT_EQ(std::set<std::uint32_t>(got.begin(), got.end()),
              brute_radius(pts, pts[i], 1.0));
    const bool interior = pts[i].x > 0 && pts[i].x < 7 && pts[i].y > 0 &&
                          pts[i].y < 7;
    if (interior) {
      EXPECT_EQ(got.size(), 5u);
    }
  }
}

TEST(BVHAdversarial, OpsMonotoneInAtLeastAndConsistentAcrossApis) {
  const auto pts = random_points(1200, 61);
  mi::BVH tree(pts, mi::BVHConfig{16, 0.0});
  mi::QueryScratch scratch;
  mrscan::util::Rng rng(62);
  std::vector<std::uint32_t> legacy_out;
  for (int trial = 0; trial < 40; ++trial) {
    const mg::Point q{0, rng.uniform(-1.0, 11.0), rng.uniform(-1.0, 11.0),
                      1.0f};
    const double r = rng.uniform(0.2, 2.0);

    std::uint64_t ops1 = 0, ops4 = 0, ops_exact = 0;
    std::uint64_t steps1 = 0, steps4 = 0, steps_exact = 0;
    tree.count_in_radius(q, r, scratch, 1, &ops1, &steps1);
    tree.count_in_radius(q, r, scratch, 4, &ops4, &steps4);
    const std::size_t exact =
        tree.count_in_radius(q, r, scratch, 0, &ops_exact, &steps_exact);
    EXPECT_LE(ops1, ops4);
    EXPECT_LE(ops4, ops_exact);
    EXPECT_LE(steps1, steps4);
    EXPECT_LE(steps4, steps_exact);
    EXPECT_GT(steps_exact, 0u) << "every traversal visits the root";

    std::uint64_t ops_query = 0, steps_query = 0, ops_legacy = 0;
    const auto span_out = tree.radius_query(q, r, scratch, &ops_query,
                                            &steps_query);
    EXPECT_EQ(ops_query, ops_exact);
    EXPECT_EQ(steps_query, steps_exact);
    EXPECT_EQ(span_out.size(), exact);
    tree.radius_query(q, r, legacy_out, &ops_legacy);
    EXPECT_EQ(ops_legacy, ops_query);
    EXPECT_TRUE(std::equal(span_out.begin(), span_out.end(),
                           legacy_out.begin(), legacy_out.end()));
  }
}

TEST(BVHAdversarial, FusedTraversalMatchesMaterializingQuery) {
  // The fused walk must produce the identical neighbour sequence at the
  // identical distance-test charge as radius_query — the determinism
  // argument of DESIGN §13 rests on this.
  const auto pts = random_points(1000, 63);
  mi::BVH tree(pts, mi::BVHConfig{16, 0.0});
  mi::QueryScratch fused_scratch;
  mi::QueryScratch mat_scratch;
  mrscan::util::Rng rng(64);
  std::vector<std::uint32_t> fused;
  for (int trial = 0; trial < 40; ++trial) {
    const mg::Point q{0, rng.uniform(-1.0, 11.0), rng.uniform(-1.0, 11.0),
                      1.0f};
    const double r = rng.uniform(0.2, 2.0);

    fused.clear();
    const mi::TraversalCost cost = tree.for_each_in_radius(
        q, r, fused_scratch, [&](std::uint32_t idx) { fused.push_back(idx); });

    std::uint64_t mat_ops = 0, mat_steps = 0;
    const auto mat = tree.radius_query(q, r, mat_scratch, &mat_ops,
                                       &mat_steps);
    EXPECT_EQ(cost.dist_ops, mat_ops);
    EXPECT_EQ(cost.node_steps, mat_steps);
    EXPECT_EQ(cost.total(), mat_ops + mat_steps);
    ASSERT_EQ(fused.size(), mat.size());
    EXPECT_TRUE(std::equal(fused.begin(), fused.end(), mat.begin(),
                           mat.end()))
        << "fused visit order must equal the materialized neighbour order";
  }
}

TEST(BVHAdversarial, BatchedApisMatchSingleQueries) {
  const auto pts = random_points(600, 65);
  mi::BVH tree(pts, mi::BVHConfig{12, 0.0});
  mi::QueryScratch batch_scratch;
  mi::QueryScratch single_scratch;
  std::vector<std::uint32_t> queries(pts.size());
  for (std::uint32_t i = 0; i < queries.size(); ++i) queries[i] = i;
  const double r = 0.6;

  tree.radius_query_many(
      queries, r, batch_scratch,
      [&](std::size_t q, std::span<const std::uint32_t> neighbors,
          std::uint64_t ops) {
        std::uint64_t single_ops = 0;
        std::vector<std::uint32_t> expect(neighbors.begin(), neighbors.end());
        const auto single =
            tree.radius_query(pts[queries[q]], r, single_scratch, &single_ops);
        EXPECT_TRUE(std::equal(expect.begin(), expect.end(), single.begin(),
                               single.end()));
        EXPECT_EQ(ops, single_ops);
      });

  tree.count_in_radius_many(
      queries, r, 4, batch_scratch,
      [&](std::size_t q, std::size_t count, std::uint64_t ops) {
        std::uint64_t single_ops = 0;
        EXPECT_EQ(count, tree.count_in_radius(pts[queries[q]], r,
                                              single_scratch, 4, &single_ops));
        EXPECT_EQ(ops, single_ops);
      });

  // Fused batch == sequential fused walks, bit for bit.
  std::vector<std::vector<std::uint32_t>> batch_visits(queries.size());
  std::vector<mi::TraversalCost> batch_costs(queries.size());
  tree.for_each_in_radius_many(
      queries, r, batch_scratch,
      [&](std::size_t q, std::uint32_t idx) { batch_visits[q].push_back(idx); },
      [&](std::size_t q, mi::TraversalCost cost) { batch_costs[q] = cost; });
  for (std::size_t q = 0; q < queries.size(); ++q) {
    std::vector<std::uint32_t> single;
    const mi::TraversalCost cost = tree.for_each_in_radius(
        pts[queries[q]], r, single_scratch,
        [&](std::uint32_t idx) { single.push_back(idx); });
    EXPECT_EQ(batch_visits[q], single);
    EXPECT_EQ(batch_costs[q].dist_ops, cost.dist_ops);
    EXPECT_EQ(batch_costs[q].node_steps, cost.node_steps);
  }
}
