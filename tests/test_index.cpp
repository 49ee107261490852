#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "data/synthetic.hpp"
#include "data/twitter.hpp"
#include "geometry/bbox.hpp"
#include "geometry/point.hpp"
#include "gpu/dense_box.hpp"
#include "index/bvh.hpp"
#include "index/cell_histogram.hpp"
#include "index/grid.hpp"
#include "index/kdtree.hpp"
#include "index/query_scratch.hpp"
#include "pin_digest.hpp"
#include "util/rng.hpp"

namespace mg = mrscan::geom;
namespace mi = mrscan::index;

namespace {

/// Brute-force radius neighbours, the oracle for index queries.
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

TEST(Grid, AllPointsAccountedFor) {
  const auto pts = random_points(500, 1);
  mi::Grid grid(mg::GridGeometry{0.0, 0.0, 1.0}, pts);
  std::size_t total = 0;
  for (const std::uint64_t code : grid.codes()) {
    total += grid.points_in(mg::cell_from_code(code)).size();
  }
  EXPECT_EQ(total, pts.size());
  EXPECT_EQ(grid.point_count(), pts.size());
}

TEST(Grid, PointsInReturnsCorrectCellMembers) {
  mg::PointSet pts{{0, 0.5, 0.5, 1.0f},
                   {1, 0.6, 0.4, 1.0f},
                   {2, 1.5, 0.5, 1.0f},
                   {3, -0.5, -0.5, 1.0f}};
  mi::Grid grid(mg::GridGeometry{0.0, 0.0, 1.0}, pts);
  auto cell00 = grid.points_in(mg::CellKey{0, 0});
  ASSERT_EQ(cell00.size(), 2u);
  EXPECT_NE(grid.find(mg::cell_code(mg::CellKey{-1, -1})), mi::Grid::npos);
  EXPECT_EQ(grid.points_in(mg::CellKey{-1, -1}).size(), 1u);
  EXPECT_EQ(grid.find(mg::cell_code(mg::CellKey{5, 5})), mi::Grid::npos);
  EXPECT_TRUE(grid.points_in(mg::CellKey{5, 5}).empty());
}

TEST(Grid, CellsSortedByCodeMembersByIndex) {
  // Deliberately scrambled input across three cells of side 1.
  const mg::PointSet pts{{0, 2.5, 0.5}, {1, 0.5, 0.5}, {2, 2.5, 0.5},
                         {3, 0.5, 2.5}, {4, 0.5, 0.5}};
  const mi::Grid grid(mg::GridGeometry{0.0, 0.0, 1.0}, pts);
  const auto codes = grid.codes();
  ASSERT_EQ(grid.cell_count(), 3u);
  std::size_t members = 0;
  for (std::size_t c = 0; c < grid.cell_count(); ++c) {
    if (c > 0) {
      EXPECT_LT(codes[c - 1], codes[c]);
    }
    EXPECT_EQ(grid.find(codes[c]), c);
    const auto cell = grid.members(c);
    EXPECT_TRUE(std::is_sorted(cell.begin(), cell.end()));
    for (const std::uint32_t i : cell) {
      EXPECT_EQ(mg::cell_code(grid.geometry().cell_of(pts[i])), codes[c]);
    }
    members += cell.size();
  }
  EXPECT_EQ(members, pts.size());
  EXPECT_EQ(grid.find(0xdeadbeefULL << 32), mi::Grid::npos);
}

TEST(Index, EveryBackendReportsNonZeroOps) {
  // Cost-model parity (DESIGN §13): both index backends answer the same
  // query with ops accounting. A backend reporting zero ops would
  // silently undercount the K20 cost model.
  const auto pts = random_points(800, 40);
  const double r = 0.9;
  const mg::Point q{0, 5.0, 5.0, 1.0f};
  const std::size_t expect = brute_radius(pts, q, r).size();
  ASSERT_GT(expect, 4u) << "query must hit enough points to be interesting";

  mi::KDTree kdtree(pts, mi::KDTreeConfig{16, 0.0});
  mi::BVH bvh(pts, mi::BVHConfig{16, 0.0});
  mi::QueryScratch scratch;

  std::uint64_t kd_ops = 0, bvh_ops = 0, bvh_steps = 0;
  EXPECT_EQ(kdtree.count_in_radius(q, r, scratch, 0, &kd_ops), expect);
  EXPECT_EQ(bvh.count_in_radius(q, r, scratch, 0, &bvh_ops, &bvh_steps),
            expect);

  EXPECT_GT(kd_ops, 0u);
  EXPECT_GT(bvh_ops, 0u);
  EXPECT_GT(bvh_steps, 0u);
  // Every backend examined at least the points it returned.
  EXPECT_GE(kd_ops, expect);
  EXPECT_GE(bvh_ops, expect);

  // Early exit is monotone on every backend: a smaller at_least target can
  // only examine fewer (or equally many) points.
  auto expect_monotone = [&](auto count_with) {
    std::uint64_t ops1 = 0, ops4 = 0, ops_all = 0;
    count_with(1, &ops1);
    count_with(4, &ops4);
    count_with(0, &ops_all);
    EXPECT_LE(ops1, ops4);
    EXPECT_LE(ops4, ops_all);
    EXPECT_GT(ops1, 0u);
  };
  expect_monotone([&](std::size_t at_least, std::uint64_t* ops) {
    kdtree.count_in_radius(q, r, scratch, at_least, ops);
  });
  expect_monotone([&](std::size_t at_least, std::uint64_t* ops) {
    bvh.count_in_radius(q, r, scratch, at_least, ops);
  });
}

TEST(Grid, EmptyPointSet) {
  mg::PointSet pts;
  mi::Grid grid(mg::GridGeometry{0.0, 0.0, 1.0}, pts);
  EXPECT_EQ(grid.cell_count(), 0u);
}

namespace {

/// `n` seeded points at cell centres of the unit grid at the origin, with
/// cell indices in [lo_x, lo_x + span_x) x [lo_y, lo_y + span_y). Every
/// fourth point repeats an earlier point's coordinates.
mg::PointSet points_in_cells(std::size_t n, std::int64_t lo_x,
                             std::uint64_t span_x, std::int64_t lo_y,
                             std::uint64_t span_y, std::uint64_t seed) {
  mrscan::util::Rng rng(seed);
  mg::PointSet pts;
  for (std::size_t i = 0; i < n; ++i) {
    mg::Point p{i, 0.0, 0.0, 1.0f};
    if (i % 4 == 3) {
      const mg::Point& twin = pts[rng.next_below(i)];
      p.x = twin.x;
      p.y = twin.y;
    } else {
      p.x = static_cast<double>(
                lo_x + static_cast<std::int64_t>(rng.next_below(span_x))) +
            0.5;
      p.y = static_cast<double>(
                lo_y + static_cast<std::int64_t>(rng.next_below(span_y))) +
            0.5;
    }
    pts.push_back(p);
  }
  return pts;
}

/// Grid and CellHistogram against a comparison sort of (code, index)
/// pairs: the same cells in the same order, each with the same members in
/// the same order, and the same counts.
void expect_matches_sorted_pairs(const mg::GridGeometry& g,
                                 const mg::PointSet& pts) {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> keyed;
  for (std::uint32_t i = 0; i < pts.size(); ++i) {
    keyed.emplace_back(mg::cell_code(g.cell_of(pts[i])), i);
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<std::uint64_t> codes;
  std::vector<std::vector<std::uint32_t>> members;
  for (std::size_t i = 0; i < keyed.size(); ++i) {
    if (i == 0 || keyed[i].first != keyed[i - 1].first) {
      codes.push_back(keyed[i].first);
      members.emplace_back();
    }
    members.back().push_back(keyed[i].second);
  }

  const mi::Grid grid(g, pts);
  ASSERT_EQ(grid.cell_count(), codes.size());
  EXPECT_EQ(grid.point_count(), pts.size());
  EXPECT_TRUE(std::ranges::equal(grid.codes(), codes));
  for (std::size_t c = 0; c < codes.size(); ++c) {
    ASSERT_TRUE(std::ranges::equal(grid.members(c), members[c]))
        << "cell " << c << " of " << codes.size();
  }

  const mi::CellHistogram hist(g, pts);
  ASSERT_EQ(hist.cell_count(), codes.size());
  for (std::size_t c = 0; c < codes.size(); ++c) {
    EXPECT_EQ(hist.entries()[c].code, codes[c]);
    EXPECT_EQ(hist.entries()[c].count, members[c].size());
  }
}

}  // namespace

TEST(Grid, MatchesSortedPairsOnTwitterWindows) {
  // At the origin every Twitter cell has a negative ix; at the data's
  // lower-left corner every key is non-negative.
  mrscan::data::TwitterConfig config;
  config.num_points = 20000;
  config.seed = 5;
  const auto pts = mrscan::data::generate_twitter(config);
  const mg::BBox box = mg::bbox_of(pts);
  for (const double cell : {0.1, 0.1 / (2.0 * std::sqrt(2.0)), 0.003}) {
    SCOPED_TRACE(cell);
    expect_matches_sorted_pairs(mg::GridGeometry{0.0, 0.0, cell}, pts);
    expect_matches_sorted_pairs(mg::GridGeometry{box.min_x, box.min_y, cell},
                                pts);
  }
}

TEST(Grid, MatchesSortedPairsWhereCodeHalvesWrap) {
  // Cells on both sides of ix = 0 and iy = 0: the uint32 halves of the
  // codes span the whole range, so the sort key needs all 64 bits.
  expect_matches_sorted_pairs(mg::GridGeometry{0.0, 0.0, 1.0},
                              points_in_cells(5000, -40, 80, -40, 80, 1));
  expect_matches_sorted_pairs(mg::GridGeometry{0.0, 0.0, 1.0},
                              points_in_cells(5000, -3, 6, 10, 50, 2));
  expect_matches_sorted_pairs(mg::GridGeometry{0.0, 0.0, 1.0},
                              points_in_cells(5000, 10, 50, -3, 6, 3));
}

TEST(Grid, MatchesSortedPairsAtTheInt32Limits) {
  // The extreme cells checked_cell_of admits with MrScan's three rings.
  constexpr std::int32_t kRings = 3;
  constexpr std::int64_t lo = std::numeric_limits<std::int32_t>::min() + kRings;
  constexpr std::int64_t hi = std::numeric_limits<std::int32_t>::max() - kRings;
  const mg::GridGeometry g{0.0, 0.0, 1.0};
  constexpr auto kSpan = static_cast<std::uint64_t>(hi - lo + 1);
  mg::PointSet pts = points_in_cells(3000, lo, 4, hi - 3, 4, 4);
  for (const mg::PointSet& more : {points_in_cells(3000, hi - 3, 4, lo, 4, 5),
                                   points_in_cells(3000, lo, kSpan, lo, kSpan,
                                                   6)}) {
    pts.insert(pts.end(), more.begin(), more.end());
  }
  for (const mg::Point& p : pts) {
    ASSERT_TRUE(g.checked_cell_of(p, kRings).has_value());
  }
  expect_matches_sorted_pairs(g, pts);
}

TEST(Grid, MatchesSortedPairsForOneCellDuplicatesAndNoPoints) {
  const mg::GridGeometry g{0.0, 0.0, 1.0};
  expect_matches_sorted_pairs(g, points_in_cells(3000, 7, 1, -7, 1, 7));
  expect_matches_sorted_pairs(
      g, mg::PointSet(3000, mg::Point{0, -2.5, 9.25, 1.0f}));
  expect_matches_sorted_pairs(g, mg::PointSet{});
}

TEST(Grid, MatchesSortedPairsForEveryKeyWidth) {
  // Boxes of 2^bits cells on one side of each axis, so the largest key
  // has exactly `bits` bits: one radix pass up to 11 bits, two up to 22,
  // three up to 33, six at 62.
  for (const int bits : {1, 5, 11, 12, 17, 22, 23, 30, 33, 45, 62}) {
    SCOPED_TRACE(bits);
    const std::uint64_t span_y = std::uint64_t{1} << std::min(bits / 2, 31);
    const std::uint64_t span_x = (std::uint64_t{1} << bits) / span_y;
    const auto lo_y = -static_cast<std::int64_t>(span_y);
    mg::PointSet pts =
        points_in_cells(4100, 0, span_x, lo_y, span_y, 100 + bits);
    // The two corner cells pin the box.
    pts.push_back({0, 0.5, static_cast<double>(lo_y) + 0.5, 1.0f});
    pts.push_back({0, static_cast<double>(span_x) - 0.5, -0.5, 1.0f});
    expect_matches_sorted_pairs(mg::GridGeometry{0.0, 0.0, 1.0}, pts);
  }
}

TEST(Grid, MatchesSortedPairsOnSeededBoxes) {
  // Random boxes anywhere in the int32 cell range, at random origins and
  // cell sizes, with random point counts.
  mrscan::util::Rng rng(2024);
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    SCOPED_TRACE(seed);
    const auto span_x = std::uint64_t{1} << rng.next_below(32);
    const auto span_y = std::uint64_t{1} << rng.next_below(32);
    const auto lo_x = std::numeric_limits<std::int32_t>::min() + 3 +
                      static_cast<std::int64_t>(rng.next_below(
                          (std::uint64_t{1} << 32) - 6 - span_x));
    const auto lo_y = std::numeric_limits<std::int32_t>::min() + 3 +
                      static_cast<std::int64_t>(rng.next_below(
                          (std::uint64_t{1} << 32) - 6 - span_y));
    const mg::PointSet unit = points_in_cells(rng.next_below(3000), lo_x,
                                              span_x, lo_y, span_y, seed);
    // The same cells at another origin and cell size.
    const mg::GridGeometry g{rng.uniform(-100.0, 100.0),
                             rng.uniform(-100.0, 100.0),
                             rng.uniform(0.25, 4.0)};
    mg::PointSet pts = unit;
    for (mg::Point& p : pts) {
      p.x = g.origin_x + p.x * g.cell_size;
      p.y = g.origin_y + p.y * g.cell_size;
    }
    expect_matches_sorted_pairs(g, pts);
  }
}

TEST(KDTree, LeavesPartitionThePoints) {
  const auto pts = random_points(2000, 6);
  mi::KDTree tree(pts, mi::KDTreeConfig{32, 0.0});
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

TEST(KDTree, RadiusQueryMatchesBruteForce) {
  const auto pts = random_points(1500, 8);
  mi::KDTree tree(pts, mi::KDTreeConfig{24, 0.0});
  mrscan::util::Rng rng(9);
  std::vector<std::uint32_t> out;
  for (int trial = 0; trial < 50; ++trial) {
    const mg::Point q{0, rng.uniform(-1.0, 11.0), rng.uniform(-1.0, 11.0),
                      1.0f};
    const double r = rng.uniform(0.05, 2.0);
    tree.radius_query(q, r, out);
    std::set<std::uint32_t> got(out.begin(), out.end());
    EXPECT_EQ(got.size(), out.size()) << "duplicates returned";
    EXPECT_EQ(got, brute_radius(pts, q, r));
  }
}

TEST(KDTree, CountInRadiusMatchesAndEarlyExits) {
  const auto pts = random_points(1000, 10);
  mi::KDTree tree(pts, mi::KDTreeConfig{24, 0.0});
  const mg::Point q{0, 5.0, 5.0, 1.0f};
  const std::size_t exact = tree.count_in_radius(q, 1.5);
  EXPECT_EQ(exact, brute_radius(pts, q, 1.5).size());
  if (exact >= 5) {
    EXPECT_EQ(tree.count_in_radius(q, 1.5, 5), 5u);
  }
}

TEST(KDTree, MinLeafExtentStopsSplittingDenseRegions) {
  // 5000 points inside a 0.01 x 0.01 square: with min_leaf_extent 0.1 the
  // tree must keep them in a single leaf instead of splitting to max_leaf.
  mg::PointSet pts = random_points(5000, 11, 0.01);
  mi::KDTree tree(pts, mi::KDTreeConfig{32, 0.1});
  EXPECT_EQ(tree.leaves().size(), 1u);
  EXPECT_EQ(tree.leaves()[0].size(), 5000u);
}

TEST(KDTree, EmptyAndSingleton) {
  mg::PointSet empty;
  mi::KDTree t0(empty, mi::KDTreeConfig{});
  EXPECT_EQ(t0.leaves().size(), 0u);
  EXPECT_EQ(t0.count_in_radius(mg::Point{0, 0, 0, 1.0f}, 1.0), 0u);

  mg::PointSet one{{7, 1.0, 1.0, 1.0f}};
  mi::KDTree t1(one, mi::KDTreeConfig{});
  EXPECT_EQ(t1.leaves().size(), 1u);
  EXPECT_EQ(t1.count_in_radius(mg::Point{0, 1.2, 1.0, 1.0f}, 0.3), 1u);
  EXPECT_EQ(t1.count_in_radius(mg::Point{0, 2.0, 1.0, 1.0f}, 0.3), 0u);
}

TEST(KDTreeAdversarial, DuplicatePointsMatchBruteForce) {
  // Every point appears 4 times; duplicate-heavy medians stress the split
  // logic, and result sets must still match the oracle exactly.
  mg::PointSet pts;
  mrscan::util::Rng rng(30);
  for (std::uint32_t i = 0; i < 300; ++i) {
    const double x = rng.uniform(0.0, 4.0);
    const double y = rng.uniform(0.0, 4.0);
    for (int copy = 0; copy < 4; ++copy) {
      pts.push_back(mg::Point{pts.size(), x, y, 1.0f});
    }
  }
  mi::KDTree tree(pts, mi::KDTreeConfig{8, 0.0});
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

TEST(KDTreeAdversarial, AllIdenticalCoordinatesHitDepthCap) {
  // Identical coordinates defeat median splitting entirely; the build must
  // bottom out at the depth cap instead of recursing forever, and queries
  // must still see every point.
  constexpr std::size_t kN = 4096;
  mg::PointSet pts;
  for (std::size_t i = 0; i < kN; ++i) {
    pts.push_back(mg::Point{i, 2.5, 2.5, 1.0f});
  }
  mi::KDTree tree(pts, mi::KDTreeConfig{2, 0.0});
  mi::QueryScratch scratch;
  EXPECT_EQ(tree.radius_query(pts[0], 0.1, scratch).size(), kN);
  EXPECT_EQ(tree.count_in_radius(pts[0], 0.1, scratch), kN);
  EXPECT_EQ(tree.count_in_radius(mg::Point{0, 5.0, 5.0, 1.0f}, 0.1, scratch),
            0u);
}

TEST(KDTreeAdversarial, PointsExactlyAtEpsAreInclusive) {
  // Unit-grid points: every axis neighbour sits at exactly Eps = 1.0
  // (representable), every diagonal at sqrt(2) > Eps. The boundary must be
  // inclusive, matching classic DBSCAN's d <= Eps.
  mg::PointSet pts;
  for (std::int32_t x = 0; x < 8; ++x) {
    for (std::int32_t y = 0; y < 8; ++y) {
      pts.push_back(
          mg::Point{pts.size(), static_cast<double>(x),
                    static_cast<double>(y), 1.0f});
    }
  }
  mi::KDTree tree(pts, mi::KDTreeConfig{4, 0.0});
  mi::QueryScratch scratch;
  for (std::uint32_t i = 0; i < pts.size(); ++i) {
    const auto got = tree.radius_query(pts[i], 1.0, scratch);
    EXPECT_EQ(std::set<std::uint32_t>(got.begin(), got.end()),
              brute_radius(pts, pts[i], 1.0));
    // Interior points: self + 4 axis neighbours, nothing else.
    const bool interior = pts[i].x > 0 && pts[i].x < 7 && pts[i].y > 0 &&
                          pts[i].y < 7;
    if (interior) {
      EXPECT_EQ(got.size(), 5u);
    }
  }
}

TEST(KDTreeAdversarial, OpsMonotoneInAtLeastAndConsistentAcrossApis) {
  const auto pts = random_points(1200, 31);
  mi::KDTree tree(pts, mi::KDTreeConfig{16, 0.0});
  mi::QueryScratch scratch;
  mrscan::util::Rng rng(32);
  std::vector<std::uint32_t> legacy_out;
  for (int trial = 0; trial < 40; ++trial) {
    const mg::Point q{0, rng.uniform(-1.0, 11.0), rng.uniform(-1.0, 11.0),
                      1.0f};
    const double r = rng.uniform(0.2, 2.0);

    // Early exit can only get cheaper as the target drops: the ops charged
    // for at_least = 1 <= at_least = 4 <= the exact count (at_least = 0).
    std::uint64_t ops1 = 0, ops4 = 0, ops_exact = 0;
    tree.count_in_radius(q, r, scratch, 1, &ops1);
    tree.count_in_radius(q, r, scratch, 4, &ops4);
    const std::size_t exact = tree.count_in_radius(q, r, scratch, 0,
                                                   &ops_exact);
    EXPECT_LE(ops1, ops4);
    EXPECT_LE(ops4, ops_exact);

    // A full radius_query examines exactly the points the exact count did,
    // through either API, and both report identical neighbours in
    // identical order (the determinism contract).
    std::uint64_t ops_query = 0, ops_legacy = 0;
    const auto span_out = tree.radius_query(q, r, scratch, &ops_query);
    EXPECT_EQ(ops_query, ops_exact);
    EXPECT_EQ(span_out.size(), exact);
    tree.radius_query(q, r, legacy_out, &ops_legacy);
    EXPECT_EQ(ops_legacy, ops_query);
    EXPECT_TRUE(std::equal(span_out.begin(), span_out.end(),
                           legacy_out.begin(), legacy_out.end()));
  }
}

TEST(KDTreeAdversarial, BatchedApisMatchSingleQueries) {
  const auto pts = random_points(600, 33);
  mi::KDTree tree(pts, mi::KDTreeConfig{12, 0.0});
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
}

// ---- KDTreePin: the query contract of the index ----------------------
//
// The leaf kernels charge the virtual device what these queries report,
// so a rewrite of the build or of the leaf scans must keep, bit for bit:
// the leaf order and leaf boxes, and for every query point the count and
// the ops charged at each early-exit target, and the neighbour indices
// (in order) and ops of a full radius query. Each input is pinned at
// min_leaf_extent 0 (population-bounded leaves) and at the dense-box side
// (the leaf kernels' setting, with large dense-area leaves).

namespace {

using mrscan::test::Digest;

std::uint64_t kdtree_query_digest(const mg::PointSet& pts, double eps,
                                  double min_leaf_extent) {
  const mi::KDTree tree(pts, mi::KDTreeConfig{64, min_leaf_extent});
  Digest d;
  d.add(std::uint64_t{tree.node_count()});
  for (const std::uint32_t i : tree.order()) d.add(std::uint64_t{i});
  for (const auto& leaf : tree.leaves()) {
    d.add(std::uint64_t{leaf.begin});
    d.add(std::uint64_t{leaf.end});
    for (const double v :
         {leaf.box.min_x, leaf.box.min_y, leaf.box.max_x, leaf.box.max_y}) {
      d.add(v);
    }
  }
  mi::QueryScratch scratch;
  for (const mg::Point& p : pts) {
    for (const std::size_t at_least : {0, 1, 5, 40}) {
      std::uint64_t ops = 0;
      d.add(std::uint64_t{
          tree.count_in_radius(p, eps, scratch, at_least, &ops)});
      d.add(ops);
    }
    std::uint64_t ops = 0;
    const auto neighbors = tree.radius_query(p, eps, scratch, &ops);
    d.add(std::uint64_t{neighbors.size()});
    for (const std::uint32_t i : neighbors) d.add(std::uint64_t{i});
    d.add(ops);
  }
  return d.value();
}

}  // namespace

TEST(KDTreePin, TwitterQueriesChargeAndReturnPinnedResults) {
  mrscan::data::TwitterConfig config;
  config.num_points = 20'000;
  config.seed = 5;
  const auto pts = mrscan::data::generate_twitter(config);  // x < 0
  const double eps = 0.1;
  const std::uint64_t plain = kdtree_query_digest(pts, eps, 0.0);
  const std::uint64_t dense =
      kdtree_query_digest(pts, eps, mrscan::gpu::dense_box_side(eps));
  EXPECT_EQ(plain, 0xd3babe50f8d31da6u)
      << std::hex << "digest 0x" << plain;
  EXPECT_EQ(dense, 0x5bd80b7b05d0150eu)
      << std::hex << "digest 0x" << dense;
}

TEST(KDTreePin, DuplicateHeavyQueriesChargeAndReturnPinnedResults) {
  // 1,500 seeded sites west of the origin, site k repeated 1 + k % 7
  // times: runs of equal keys at every median the build selects.
  mrscan::util::Rng rng(44);
  mg::PointSet pts;
  for (std::uint32_t k = 0; k < 1'500; ++k) {
    const double x = rng.uniform(-1.25, -1.0);
    const double y = rng.uniform(0.0, 0.25);
    for (std::uint32_t copy = 0; copy <= k % 7; ++copy) {
      pts.push_back(mg::Point{pts.size(), x, y, 1.0f});
    }
  }
  const double eps = 0.05;
  const std::uint64_t plain = kdtree_query_digest(pts, eps, 0.0);
  const std::uint64_t dense =
      kdtree_query_digest(pts, eps, mrscan::gpu::dense_box_side(eps));
  EXPECT_EQ(plain, 0xe52449f2906ce90fu)
      << std::hex << "digest 0x" << plain;
  EXPECT_EQ(dense, 0x1e8564e9a4d2ec94u)
      << std::hex << "digest 0x" << dense;
}

TEST(CellHistogram, CountsMatchGrid) {
  const auto pts = random_points(700, 12);
  const mg::GridGeometry g{0.0, 0.0, 0.9};
  mi::CellHistogram hist(g, pts);
  mi::Grid grid(g, pts);
  EXPECT_EQ(hist.total_points(), pts.size());
  EXPECT_EQ(hist.cell_count(), grid.cell_count());
  for (const std::uint64_t code : grid.codes()) {
    EXPECT_EQ(hist.count_of(mg::cell_from_code(code)),
              grid.points_in(mg::cell_from_code(code)).size());
  }
}

TEST(CellHistogram, MergeIsAdditive) {
  const auto a = random_points(300, 13);
  const auto b = random_points(400, 14);
  const mg::GridGeometry g{0.0, 0.0, 1.0};
  mi::CellHistogram ha(g, a), hb(g, b);
  mi::CellHistogram merged = ha;
  merged.merge(hb);
  EXPECT_EQ(merged.total_points(), 700u);

  mg::PointSet all = a;
  all.insert(all.end(), b.begin(), b.end());
  mi::CellHistogram hall(g, all);
  ASSERT_EQ(merged.cell_count(), hall.cell_count());
  for (std::size_t i = 0; i < merged.entries().size(); ++i) {
    EXPECT_EQ(merged.entries()[i].code, hall.entries()[i].code);
    EXPECT_EQ(merged.entries()[i].count, hall.entries()[i].count);
  }
}

TEST(CellHistogram, EntriesForOneCellAdd) {
  // Entries for the same cell add up.
  const mi::CellHistogram hist({{mg::cell_code(mg::CellKey{0, 0}), 5},
                                {mg::cell_code(mg::CellKey{1, 0}), 3},
                                {mg::cell_code(mg::CellKey{0, 0}), 2}});
  EXPECT_EQ(hist.total_points(), 10u);
  EXPECT_EQ(hist.count_of(mg::CellKey{0, 0}), 7u);
  EXPECT_EQ(hist.count_of(mg::CellKey{2, 2}), 0u);
  EXPECT_EQ(hist.cell_count(), 2u);
}

TEST(CellHistogram, EntriesSortedByCode) {
  const auto pts = random_points(200, 15);
  mi::CellHistogram hist(mg::GridGeometry{0.0, 0.0, 0.5}, pts);
  for (std::size_t i = 1; i < hist.entries().size(); ++i) {
    EXPECT_LT(hist.entries()[i - 1].code, hist.entries()[i].code);
  }
}
