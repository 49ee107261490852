// Cell-graph cluster path: UnionFind (promoted into src/cluster/), the
// cell-graph grid's side, and adversarial property tests for the bichromatic
// closest-pair (BCP) cell connection — the places the formulation could
// silently diverge from DBSCAN (boundary inclusivity, duplicate mass,
// degenerate grids, the cell-core rule's exact threshold).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "cluster/cell_graph_ops.hpp"
#include "cluster/mutable_grid.hpp"
#include "cluster/union_find.hpp"
#include "cluster_equiv.hpp"
#include "data/twitter.hpp"
#include "dbscan/sequential.hpp"
#include "gpu/device.hpp"
#include "gpu/mrscan_gpu.hpp"
#include "sweep/sweep.hpp"
#include "util/rng.hpp"

namespace mcl = mrscan::cluster;
namespace md = mrscan::dbscan;
namespace mg = mrscan::geom;
namespace gpu = mrscan::gpu;

namespace {

gpu::MrScanGpuConfig leaf_config(double eps, std::size_t min_pts,
                                 mcl::ClusterAlgo algo) {
  gpu::MrScanGpuConfig config;
  config.params = {eps, min_pts};
  config.cluster_algo = algo;
  return config;
}

/// Run one leaf on both cluster paths and require the full labelings to
/// agree exactly: identical core flags, and (both number clusters by
/// first appearance) identical cluster vectors.
gpu::GpuDbscanResult expect_paths_identical(const mg::PointSet& points,
                                            double eps,
                                            std::size_t min_pts) {
  gpu::VirtualDevice dev_tp, dev_cg;
  const auto two_pass = gpu::mrscan_gpu_dbscan(
      points, leaf_config(eps, min_pts, mcl::ClusterAlgo::kTwoPass),
      dev_tp);
  auto cell_graph = gpu::mrscan_gpu_dbscan(
      points, leaf_config(eps, min_pts, mcl::ClusterAlgo::kCellGraph),
      dev_cg);
  EXPECT_EQ(cell_graph.labels.core, two_pass.labels.core);
  EXPECT_EQ(cell_graph.labels.cluster, two_pass.labels.cluster);
  return cell_graph;
}

/// Core flags and core-restricted partition must match sequential DBSCAN
/// exactly (border ties are the only legitimate divergence).
void expect_matches_sequential(const mg::PointSet& points, double eps,
                               std::size_t min_pts,
                               const gpu::GpuDbscanResult& got) {
  const auto ref =
      md::dbscan_sequential(points, md::DbscanParams{eps, min_pts});
  EXPECT_EQ(got.labels.core, ref.core);
  EXPECT_EQ(got.labels.cluster_count(), ref.cluster_count());
  EXPECT_TRUE(mrscan::sweep::equivalent_partitions_where(
      got.labels.cluster, ref.cluster, ref.core));
}

}  // namespace

// ---- UnionFind (promoted from src/util/ into src/cluster/) ----------

TEST(UnionFind, SingletonsAreDistinct) {
  mcl::UnionFind uf(5);
  EXPECT_EQ(uf.count_sets(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(uf.find(i), i);
}

TEST(UnionFind, UniteMergesAndFindAgrees) {
  mcl::UnionFind uf(6);
  uf.unite(0, 1);
  uf.unite(2, 3);
  EXPECT_TRUE(uf.same(0, 1));
  EXPECT_FALSE(uf.same(1, 2));
  uf.unite(1, 3);
  EXPECT_TRUE(uf.same(0, 2));
  EXPECT_EQ(uf.count_sets(), 3u);  // {0,1,2,3}, {4}, {5}
}

TEST(UnionFind, SetSizeTracksUnions) {
  mcl::UnionFind uf(4);
  EXPECT_EQ(uf.set_size(0), 1u);
  uf.unite(0, 1);
  uf.unite(0, 2);
  EXPECT_EQ(uf.set_size(2), 3u);
}

TEST(UnionFind, AddExtendsStructure) {
  mcl::UnionFind uf(2);
  const auto id = uf.add();
  EXPECT_EQ(id, 2u);
  uf.unite(0, id);
  EXPECT_TRUE(uf.same(0, 2));
}

TEST(UnionFind, TransitiveChainCollapses) {
  const std::uint32_t n = 1000;
  mcl::UnionFind uf(n);
  for (std::uint32_t i = 0; i + 1 < n; ++i) uf.unite(i, i + 1);
  EXPECT_EQ(uf.count_sets(), 1u);
  EXPECT_EQ(uf.set_size(0), n);
}

TEST(UnionFind, ValidateAcceptsHeavilyUsedStructure) {
  mcl::UnionFind uf(500);
  for (std::uint32_t i = 0; i < 500; i += 2) uf.unite(i, (i * 7 + 3) % 500);
  uf.validate();  // aborts on a cyclic or out-of-range parent chain
  for (std::uint32_t i = 0; i < 500; ++i) uf.find(i);  // full halving
  uf.validate();
  SUCCEED();
}

// ---- The cell-graph grid -------------------------------------------

TEST(CellGraph, SideIsEpsOverTwoRootTwo) {
  const double side = mcl::cell_graph_side(1.0);
  // Cell diagonal = Eps/2: intra-cell pairs are always within Eps.
  EXPECT_NEAR(side * std::sqrt(2.0), 0.5, 1e-12);
}

// ---- MutableCellGrid (the serving path's grid) ----------------------

TEST(MutableCellGrid, RingOffsetsFollowTheScanOrderAndMirror) {
  std::vector<mg::CellKey> scan;
  mg::for_each_neighbor_within(mg::CellKey{0, 0}, mcl::kCellGraphRings,
                               [&](mg::CellKey k) { scan.push_back(k); });
  ASSERT_EQ(scan.size(), static_cast<std::size_t>(mcl::kRingCells));
  for (int k = 0; k < mcl::kRingCells; ++k) {
    EXPECT_EQ(mcl::ring_offset(k), scan[static_cast<std::size_t>(k)]);
    const mg::CellKey mirror = mcl::ring_offset(mcl::ring_mirror(k));
    EXPECT_EQ(mirror.ix, -scan[static_cast<std::size_t>(k)].ix);
    EXPECT_EQ(mirror.iy, -scan[static_cast<std::size_t>(k)].iy);
  }
}

TEST(MutableCellGrid, CodeOfRejectsPointsOutsideTheDomain) {
  const mcl::MutableCellGrid grid(0.5);
  EXPECT_EQ(grid.code_of(mg::Point{0, 1.2, -0.2}).value_or(0),
            mg::cell_code(mg::CellKey{2, -1}));
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(grid.code_of(mg::Point{0, 1e300, 0.0}).has_value());
  EXPECT_FALSE(grid.code_of(mg::Point{0, 0.0, -1e300}).has_value());
  EXPECT_FALSE(grid.code_of(mg::Point{0, std::nan(""), 0.0}).has_value());
  EXPECT_FALSE(grid.code_of(mg::Point{0, 0.0, inf}).has_value());
  // The last admitted index leaves room for the ring-3 neighbourhood.
  const double top = std::numeric_limits<std::int32_t>::max() - 3;
  EXPECT_TRUE(grid.code_of(mg::Point{0, top * 0.5, 0.0}).has_value());
  EXPECT_FALSE(grid.code_of(mg::Point{0, (top + 1) * 0.5, 0.0}).has_value());
}

TEST(MutableCellGrid, MembersSortedAndEmptiedCellsKeptUntilReleased) {
  mcl::MutableCellGrid grid(1.0);
  const std::uint64_t code = mg::cell_code(mg::CellKey{0, 0});
  const std::uint64_t east = mg::cell_code(mg::CellKey{1, 0});
  const std::uint32_t cell = grid.insert(code, 9, 0);
  EXPECT_EQ(grid.insert(code, 4, 1), cell);
  EXPECT_EQ(grid.insert(code, 6, 2), cell);
  const auto members = grid.members(cell);
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].id, 4u);
  EXPECT_EQ(members[0].slot, 1u);
  EXPECT_EQ(members[1].id, 6u);
  EXPECT_EQ(members[2].id, 9u);
  EXPECT_THROW(grid.insert(code, 6, 3), std::invalid_argument);

  const std::uint32_t other = grid.insert(east, 1, 3);
  EXPECT_NE(other, cell);
  // (1,0) is at ring offset 24: dy = 0, dx = +1, just past the centre.
  EXPECT_EQ(mcl::ring_offset(24), (mg::CellKey{1, 0}));
  EXPECT_EQ(grid.neighbor(cell, 24), other);
  EXPECT_EQ(grid.neighbor(other, mcl::ring_mirror(24)), cell);
  EXPECT_EQ(grid.neighbor(cell, 0), mcl::MutableCellGrid::kNoCell);

  grid.remove(other, 1);
  EXPECT_TRUE(grid.members(other).empty());
  EXPECT_EQ(grid.find(east), other);  // emptied, still addressable
  EXPECT_EQ(grid.cell_count(), 2u);
  EXPECT_THROW(grid.remove(other, 1), std::invalid_argument);
  grid.release(other);
  EXPECT_EQ(grid.find(east), mcl::MutableCellGrid::kNoCell);
  EXPECT_EQ(grid.cell_count(), 1u);
  EXPECT_THROW(grid.release(cell), std::invalid_argument);
  // A released index is handed out again.
  EXPECT_EQ(grid.insert(mg::cell_code(mg::CellKey{-5, 7}), 2, 4), other);
  EXPECT_EQ(grid.table_size(), 2u);
}

// ---- Adversarial BCP properties -------------------------------------

TEST(CellGraph, ExactEpsChainOnIntegerGridIsInclusive) {
  // Points on the integer line, consecutive pairs at distance exactly
  // Eps = 1.0 (representable, so dist2 == eps2 exactly). The DBSCAN
  // Eps-neighbourhood is inclusive; a '<' anywhere in the BCP test or
  // the classification would shatter this into singletons.
  mg::PointSet pts;
  for (std::uint64_t i = 0; i < 12; ++i) {
    pts.push_back({i, static_cast<double>(i), 0.0});
  }
  const auto result = expect_paths_identical(pts, 1.0, 2);
  expect_matches_sequential(pts, 1.0, 2, result);
  EXPECT_EQ(result.labels.cluster_count(), 1u);
  // One point per cell: nothing qualifies for the wholesale rule.
  EXPECT_EQ(result.stats.cellgraph_core_cells, 0u);
  EXPECT_GT(result.stats.cellgraph_bcp_pairs, 0u);
}

TEST(CellGraph, AxisAlignedCellsThreeApartStillConnect) {
  // Two clumps whose cells are Chebyshev distance 3 apart on the x axis:
  // box gap 2*side ~ 0.707 Eps < Eps. A ring bound of 2 would miss the
  // edge and report two clusters.
  const double eps = 1.0;
  const double side = mcl::cell_graph_side(eps);
  mg::PointSet pts;
  for (std::uint64_t i = 0; i < 5; ++i) {
    pts.push_back({i, 0.6 * side, 0.5 * side});
    pts.push_back({100 + i, 3.2 * side, 0.5 * side});
  }
  const auto result = expect_paths_identical(pts, eps, 5);
  ASSERT_EQ(result.stats.cellgraph_cells, 2u);  // the fixture spans 2 cells
  expect_matches_sequential(pts, eps, 5, result);
  EXPECT_EQ(result.labels.cluster_count(), 1u);
  EXPECT_EQ(result.stats.cellgraph_core_cells, 2u);
}

TEST(CellGraph, NeighborCellsBeyondEpsStayApart) {
  // Cells at Chebyshev distance (3,3) — the ring's corner, whose box gap
  // is exactly Eps, so the pair survives the prefilter — but whose points
  // are all farther than Eps: the BCP test itself must reject the link.
  const double eps = 1.0;
  const double side = mcl::cell_graph_side(eps);
  mg::PointSet pts;
  for (std::uint64_t i = 0; i < 6; ++i) {
    pts.push_back({i, 0.05 * side, 0.5 * side});
    // Next-but-two cell, far corner: distance ~ 1.1 Eps.
    pts.push_back({100 + i, 3.2 * side, 0.5 * side + 1.05 * eps});
  }
  const auto result = expect_paths_identical(pts, eps, 5);
  expect_matches_sequential(pts, eps, 5, result);
  EXPECT_EQ(result.labels.cluster_count(), 2u);
}

TEST(CellGraph, DuplicatePointsTimesFourMatchEverywhere) {
  // Every site duplicated x4 with MinPts = 4: every occupied cell holds
  // at least 4 coincident points, so the wholesale rule must cover the
  // entire input, and duplicate mass must not double-link or drop edges.
  mrscan::data::TwitterConfig tw;
  tw.num_points = 300;
  tw.seed = 11;
  const auto base = mrscan::data::generate_twitter(tw);
  mg::PointSet pts;
  for (const auto& p : base) {
    for (int d = 0; d < 4; ++d) {
      pts.push_back({p.id * 4 + static_cast<std::uint64_t>(d), p.x, p.y});
    }
  }
  const auto result = expect_paths_identical(pts, 0.05, 4);
  expect_matches_sequential(pts, 0.05, 4, result);
  EXPECT_EQ(result.stats.cellgraph_wholesale_points, pts.size());
  EXPECT_EQ(result.labels.noise_count(), 0u);
}

TEST(CellGraph, AllPointsInOneCellFormOneClusterWithoutBcp) {
  // Degenerate grid: the whole input inside a single cell. One wholesale
  // core cell, no cell pairs to test, one cluster.
  const double eps = 1.0;
  const double side = mcl::cell_graph_side(eps);
  mg::PointSet pts;
  for (std::uint64_t i = 0; i < 50; ++i) {
    pts.push_back({i, 0.1 * side + 1e-5 * static_cast<double>(i),
                   0.4 * side});
  }
  const auto result = expect_paths_identical(pts, eps, 10);
  expect_matches_sequential(pts, eps, 10, result);
  EXPECT_EQ(result.stats.cellgraph_cells, 1u);
  EXPECT_EQ(result.stats.cellgraph_core_cells, 1u);
  EXPECT_EQ(result.stats.cellgraph_wholesale_points, 50u);
  EXPECT_EQ(result.stats.cellgraph_bcp_pairs, 0u);
  EXPECT_EQ(result.labels.cluster_count(), 1u);
}

TEST(CellGraph, CellsAtExactlyMinPtsMinusOneUseThePointRule) {
  // A 4x4 block of cells, each holding exactly MinPts - 1 coincident
  // points at its centre. The wholesale cell rule must NOT fire (>=
  // MinPts is the threshold, and an off-by-one here would misclassify
  // every point), yet every point is still core through the exact
  // per-point count: neighbouring cell centres are within Eps.
  const double eps = 1.0;
  const double side = mcl::cell_graph_side(eps);
  const std::size_t min_pts = 5;
  mg::PointSet pts;
  std::uint64_t id = 0;
  for (int cx = 0; cx < 4; ++cx) {
    for (int cy = 0; cy < 4; ++cy) {
      for (std::size_t k = 0; k + 1 < min_pts; ++k) {
        pts.push_back({id++, (cx + 0.5) * side, (cy + 0.5) * side});
      }
    }
  }
  const auto result = expect_paths_identical(pts, eps, min_pts);
  expect_matches_sequential(pts, eps, min_pts, result);
  EXPECT_EQ(result.stats.cellgraph_cells, 16u);
  EXPECT_EQ(result.stats.cellgraph_core_cells, 0u);
  EXPECT_EQ(result.stats.cellgraph_wholesale_points, 0u);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_TRUE(result.labels.core[i]) << "point " << i;
  }
  EXPECT_EQ(result.labels.cluster_count(), 1u);
}

TEST(CellGraph, EmptyInputYieldsEmptyLabeling) {
  const mg::PointSet pts;
  gpu::VirtualDevice device;
  const auto result = gpu::mrscan_gpu_dbscan(
      pts, leaf_config(1.0, 5, mcl::ClusterAlgo::kCellGraph), device);
  EXPECT_EQ(result.labels.size(), 0u);
  EXPECT_EQ(result.stats.cellgraph_cells, 0u);
}

TEST(CellGraph, ChargesEveryBcpComparisonToTheDevice) {
  // The K20 cost model must see the BCP work: device distance ops are at
  // least the classification + BCP ops, and the BCP counters are
  // consistent (pairs tested implies ops spent).
  mrscan::data::TwitterConfig tw;
  tw.num_points = 2000;
  tw.seed = 19;
  const auto pts = mrscan::data::generate_twitter(tw);
  gpu::VirtualDevice device;
  const auto result = gpu::mrscan_gpu_dbscan(
      pts, leaf_config(0.05, 10, mcl::ClusterAlgo::kCellGraph), device);
  EXPECT_GT(result.stats.cellgraph_bcp_pairs, 0u);
  EXPECT_GE(result.stats.cellgraph_bcp_ops,
            result.stats.cellgraph_bcp_pairs);
  EXPECT_GE(result.stats.distance_ops, result.stats.cellgraph_bcp_ops);
  EXPECT_GT(result.stats.kernel_launches, 0u);
  EXPECT_GT(result.stats.device_seconds, 0.0);
}

TEST(CellGraph, ChainsAcrossTheAxesKeepTheirPairOrder) {
  // Seeded random walks around the origin whose every step leaves a loose
  // clump of three points, over a sparse uniform background. Consecutive
  // clumps, 0.5 to 0.95 Eps apart, lie in cells up to three apart, so
  // chains of core cells meet at every forward offset, and do so across
  // ix = 0 and iy = 0, where the uint32 halves of the cell codes wrap.
  // The pair tests and their ops depend on the order the pairs are
  // visited in: a source cell skips a neighbour that an earlier pair
  // already joined to it, and which of two such neighbours it tests first
  // decides which one it skips. So both are pinned with the labels.
  const double eps = 1.0;
  const double side = mcl::cell_graph_side(eps);
  mrscan::util::Rng rng(2029);
  mg::PointSet pts;
  for (int walk = 0; walk < 14; ++walk) {
    double x = rng.uniform(-3.0, 3.0);
    double y = rng.uniform(-3.0, 3.0);
    for (int step = 0; step < 8; ++step) {
      for (int k = 0; k < 3; ++k) {
        pts.push_back({pts.size(), x + rng.uniform(-0.15, 0.15),
                       y + rng.uniform(-0.15, 0.15)});
      }
      const double angle = rng.uniform(0.0, 6.283185307179586);
      const double len = rng.uniform(0.5, 0.95) * eps;
      x += len * std::cos(angle);
      y += len * std::sin(angle);
    }
  }
  for (int k = 0; k < 60; ++k) {
    pts.push_back({pts.size(), rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5)});
  }
  const std::size_t min_pts = 6;
  const auto result = expect_paths_identical(pts, eps, min_pts);
  expect_matches_sequential(pts, eps, min_pts, result);

  // The fixture covers what it claims: for every forward offset, two core
  // cells at that offset on either side of iy = 0 (when dy != 0) and on
  // either side of ix = 0 (when dx != 0).
  const mg::GridGeometry grid{0.0, 0.0, side};
  std::vector<mg::CellKey> core_cells;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (result.labels.core[i]) core_cells.push_back(grid.cell_of(pts[i]));
  }
  for (std::int32_t dx = 0; dx <= mcl::kCellGraphRings; ++dx) {
    for (std::int32_t dy = -mcl::kCellGraphRings;
         dy <= mcl::kCellGraphRings; ++dy) {
      if (dx == 0 && dy <= 0) continue;
      bool across_y = dy == 0;
      bool across_x = dx == 0;
      for (const mg::CellKey a : core_cells) {
        const mg::CellKey b{a.ix + dx, a.iy + dy};
        if (std::find(core_cells.begin(), core_cells.end(), b) ==
            core_cells.end()) {
          continue;
        }
        across_y |= (a.iy < 0) != (b.iy < 0);
        across_x |= (a.ix < 0) != (b.ix < 0);
      }
      EXPECT_TRUE(across_y && across_x) << "offset (" << dx << ", " << dy
                                        << ")";
    }
  }
  EXPECT_EQ(result.stats.cellgraph_bcp_pairs, 192u);
  EXPECT_EQ(result.stats.cellgraph_bcp_ops, 408u);
}
