// The pinned leaf layer: what a leaf charges and what it sends.
//
// Resident MrScan::run at 4 leaves on seeded Twitter points (negative x,
// so the cell-graph and dense-box grids see negative cell keys) and SDSS
// points, on the cell-graph path and on the two-pass path with dense
// boxes, at cell_refine 1 and 2. Each run pins the bits of its simulated
// total, the merge tree's upstream bytes, a digest of every leaf's
// GpuDbscanStats and a digest of the output records. One more pin holds
// the packet bytes of a leaf summary built directly. A rewrite of a leaf
// kernel or of the summary builder must keep every charge and every byte;
// any difference fails here.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "core/mrscan.hpp"
#include "data/sdss.hpp"
#include "data/twitter.hpp"
#include "dbscan/sequential.hpp"
#include "merge/summary.hpp"
#include "pin_digest.hpp"

namespace mc = mrscan::core;
namespace mg = mrscan::geom;
namespace mm = mrscan::merge;
using mrscan::cluster::ClusterAlgo;

namespace {

using mrscan::test::Digest;

mg::PointSet twitter_points() {
  mrscan::data::TwitterConfig config;
  config.num_points = 20'000;
  config.seed = 5;
  return mrscan::data::generate_twitter(config);
}

mg::PointSet sdss_points() {
  mrscan::data::SdssConfig config;
  config.num_points = 20'000;
  config.seed = 5;
  config.detections_per_object = 60.0;
  return mrscan::data::generate_sdss(config);
}

std::uint64_t stats_digest(const mc::MrScanResult& result) {
  Digest d;
  for (const auto& s : result.leaf_stats) {
    for (const std::uint64_t w :
         {s.dense_boxes, s.dense_points, s.chains, s.collisions,
          s.distance_ops, s.kernel_launches, s.h2d_transfers,
          s.d2h_transfers, s.cellgraph_cells, s.cellgraph_core_cells,
          s.cellgraph_wholesale_points, s.cellgraph_bcp_pairs,
          s.cellgraph_bcp_ops, s.bvh_node_steps}) {
      d.add(w);
    }
    d.add(s.device_seconds);
  }
  return d.value();
}

std::uint64_t output_digest(const mc::MrScanResult& result) {
  Digest d;
  for (const auto& rec : result.output) {
    d.add(rec.point.id);
    d.add(rec.point.x);
    d.add(rec.point.y);
    d.add(std::uint64_t{std::bit_cast<std::uint32_t>(rec.point.weight)});
    d.add(static_cast<std::uint64_t>(rec.cluster));
  }
  return d.value();
}

struct RunPin {
  ClusterAlgo algo;
  std::size_t cell_refine;
  std::uint64_t sim_total_bits;
  std::uint64_t bytes_up;
  std::uint64_t stats;
  std::uint64_t output;
};

/// Runs every pin on `points` and returns the largest per-leaf dense-box
/// count seen on the two-pass runs.
std::uint64_t expect_runs(const mg::PointSet& points, double eps,
                          std::size_t min_pts,
                          std::span<const RunPin> pins) {
  std::uint64_t max_dense_boxes = 0;
  for (const RunPin& pin : pins) {
    SCOPED_TRACE(testing::Message()
                 << mrscan::cluster::to_string(pin.algo) << ", cell_refine "
                 << pin.cell_refine);
    mc::MrScanConfig config;
    config.params = {eps, min_pts};
    config.leaves = 4;
    config.partition_nodes = 2;
    config.cluster_algo = pin.algo;
    config.cell_refine = pin.cell_refine;
    config.gpu.dense_box = true;
    const auto result = mc::MrScan(config).run(points);
    EXPECT_EQ(result.leaves_used, 4u);
    const double total = result.sim.total();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(total), pin.sim_total_bits)
        << std::hex << "sim.total() bits 0x"
        << std::bit_cast<std::uint64_t>(total);
    EXPECT_EQ(result.merge_net.bytes_up, pin.bytes_up);
    EXPECT_EQ(stats_digest(result), pin.stats)
        << std::hex << "stats digest 0x" << stats_digest(result);
    EXPECT_EQ(output_digest(result), pin.output)
        << std::hex << "output digest 0x" << output_digest(result);
    if (pin.algo == ClusterAlgo::kTwoPass) {
      for (const auto& s : result.leaf_stats) {
        max_dense_boxes = std::max(max_dense_boxes, s.dense_boxes);
      }
    }
  }
  return max_dense_boxes;
}

}  // namespace

TEST(LeafPin, TwitterRunsChargeAndSendPinnedBytes) {
  const RunPin pins[] = {
      {ClusterAlgo::kCellGraph, 1, 0x4000e2561f0d8db1, 40713,
       0x1d546775748beea9, 0x246b816932195554},
      {ClusterAlgo::kCellGraph, 2, 0x4000e39e93aadb75, 75864,
       0xaab784edb740a1db, 0x6f164e3357439f50},
      {ClusterAlgo::kTwoPass, 1, 0x4000e385f0532cbe, 40713,
       0x87a6f1552919e602, 0x246b816932195554},
      {ClusterAlgo::kTwoPass, 2, 0x4000e4d21f1589d0, 75864,
       0xfcd553fe81f184b4, 0x6f164e3357439f50},
  };
  expect_runs(twitter_points(), 0.1, 20, pins);
}

TEST(LeafPin, SdssRunsChargeAndSendPinnedBytes) {
  const RunPin pins[] = {
      {ClusterAlgo::kCellGraph, 1, 0x4000e6995e592857, 20078,
       0x2c8b0513f268753f, 0xacb4516322db34d4},
      {ClusterAlgo::kCellGraph, 2, 0x4000e83e05dca944, 29474,
       0x47fd074a5771e463, 0x104d8ae204312d5c},
      {ClusterAlgo::kTwoPass, 1, 0x4000e819f5341264, 20078,
       0x4438f80c503a579f, 0xacb4516322db34d4},
      {ClusterAlgo::kTwoPass, 2, 0x4000e959f2f33d13, 29474,
       0x4ca6ea6f00aee38c, 0x104d8ae204312d5c},
  };
  // Some leaf must hold two dense boxes, or connect_dense_boxes never runs.
  EXPECT_GE(expect_runs(sdss_points(), 0.00015, 5, pins), 2u);
}

TEST(LeafPin, SummaryOfShuffledLeafWithSharedCells) {
  // Twitter-like hot spots packed into a 4 x 2 degree window west of the
  // origin, clustered at Eps 0.05 over cells four Eps wide, so several
  // clusters (and their border points) share each boundary cell. The leaf
  // owns the cells left of x = -2 and sees a two-cell shadow strip to
  // their right; its owned points come first and its shadow points after,
  // each in a seeded shuffled order.
  const double eps = 0.05;
  const mg::GridGeometry geometry{0.0, 0.0, 4 * eps};
  const std::int32_t owned_end = -10;  // owned cells: ix < -10
  const std::int32_t shadow_end = -8;
  mrscan::data::TwitterConfig config;
  config.num_points = 8'000;
  config.seed = 7;
  config.window = mg::BBox{-4.0, 0.0, 0.0, 2.0};
  config.num_cities = 60;
  config.city_sigma_max = 0.1;
  mg::PointSet owned;
  mg::PointSet shadow;
  for (const mg::Point& p : mrscan::data::generate_twitter(config)) {
    const std::int32_t ix = geometry.cell_of(p).ix;
    if (ix < owned_end) {
      owned.push_back(p);
    } else if (ix < shadow_end) {
      shadow.push_back(p);
    }
  }
  std::mt19937_64 rng(42);
  const auto shuffle = [&rng](mg::PointSet& pts) {
    for (std::size_t i = pts.size(); i > 1; --i) {
      std::swap(pts[i - 1], pts[rng() % i]);
    }
  };
  shuffle(owned);
  shuffle(shadow);
  mg::PointSet points = owned;
  points.insert(points.end(), shadow.begin(), shadow.end());

  std::vector<std::uint64_t> owned_cells;
  std::vector<std::uint64_t> shadow_cells;
  for (const mg::Point& p : points) {
    const mg::CellKey key = geometry.cell_of(p);
    (key.ix < owned_end ? owned_cells : shadow_cells)
        .push_back(mg::cell_code(key));
  }
  for (auto* cells : {&owned_cells, &shadow_cells}) {
    std::sort(cells->begin(), cells->end());
    cells->erase(std::unique(cells->begin(), cells->end()), cells->end());
  }

  const auto labels = mrscan::dbscan::dbscan_sequential(points, {eps, 8});
  mm::LeafSummaryInput input;
  input.points = points;
  input.owned_count = owned.size();
  input.labels = &labels;
  input.geometry = geometry;
  input.owned_cells = owned_cells;
  input.shadow_cells = shadow_cells;
  input.shadow_rings = 2;
  const auto summary = mm::build_leaf_summary(input);

  // The fixture exercises what it claims: boundary cells that appear in
  // more than one cluster, and clusters with no boundary cell at all.
  std::vector<std::uint64_t> seen;
  std::size_t interior_clusters = 0;
  for (const auto& cluster : summary.clusters) {
    if (cluster.cells.empty()) ++interior_clusters;
    for (const auto& cell : cluster.cells) seen.push_back(cell.cell_code);
  }
  std::sort(seen.begin(), seen.end());
  const auto distinct = static_cast<std::size_t>(
      std::unique(seen.begin(), seen.end()) - seen.begin());
  EXPECT_GE(seen.size() - distinct, 3u);
  EXPECT_GE(interior_clusters, 1u);

  const auto packet = summary.to_packet();
  Digest d;
  for (const std::uint8_t b : packet.bytes()) d.add(std::uint64_t{b});
  EXPECT_EQ(summary.clusters.size(), 25u);
  EXPECT_EQ(packet.size_bytes(), 6607u);
  EXPECT_EQ(d.value(), 0x1b8003a2cff8c11bu) << std::hex << "packet digest 0x" << d.value();
}
