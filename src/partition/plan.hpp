// Partition plans: which Eps x Eps grid cells each clustering leaf owns,
// plus its shadow region (§3.1.1).
//
// A plan is computed from a cell histogram alone — no individual point
// data — which is what lets the partitioner distribute (§3.1.3): leaves
// send per-cell counts up the tree, the root plans serially, boundaries
// are broadcast back.
#pragma once

#include <cstdint>
#include <vector>

#include "geometry/cell.hpp"

namespace mrscan::partition {

struct PartitionPart {
  /// Cell codes owned by this partition, in spatial iteration order.
  std::vector<std::uint64_t> owned_cells;
  /// Shadow region: every non-empty grid neighbour of an owned cell that
  /// is not itself owned — so each owned point's Eps-neighbourhood is
  /// complete within the partition.
  std::vector<std::uint64_t> shadow_cells;
  std::uint64_t owned_points = 0;
  std::uint64_t shadow_points = 0;

  std::uint64_t total_points() const { return owned_points + shadow_points; }
};

struct PartitionPlan {
  geom::GridGeometry geometry;
  /// Shadow radius in cells: 2 when cells are Eps-sized, 2k when the grid
  /// is refined to Eps/k cells (§5.1.2 future work). The shadow covers
  /// everything within 2*Eps of the partition boundary so that points in
  /// the inner Eps band carry *exact* core flags — which is what makes
  /// owned labels partition-invariant (border attachment and core
  /// connectivity near a cut see the same evidence every leaf sees).
  std::int32_t shadow_rings = 2;
  std::vector<PartitionPart> parts;
  /// Cells handed to the previous partition during backward rebalancing
  /// (Figure 2c/2d); deterministic, exported as metric
  /// "partition.rebalance_moves".
  std::uint64_t rebalance_moves = 0;

  std::size_t part_count() const { return parts.size(); }
  std::uint64_t total_owned_points() const {
    std::uint64_t total = 0;
    for (const auto& p : parts) total += p.owned_points;
    return total;
  }
  std::uint64_t total_points_with_shadow() const {
    std::uint64_t total = 0;
    for (const auto& p : parts) total += p.total_points();
    return total;
  }
};

}  // namespace mrscan::partition
