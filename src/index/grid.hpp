// Uniform grid bucketing of a point set: the partitioner's cell index.
//
// Cells are Eps (or Eps/k under grid refinement) on a side, so the
// Eps-neighbourhood of any point lies within its cell's shadow rings — the
// property the partitioner's shadow regions (§3.1.1) rely on when
// materialize_partitions copies whole cells into each leaf's segment.
//
// Storage is CSR-style: points are bucketed by cell code, cells are kept
// sorted by code, and per-cell point index lists are contiguous.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geometry/cell.hpp"
#include "geometry/point.hpp"

namespace mrscan::index {

class Grid {
 public:
  /// Bucket `points`; points_in() returns indices into this span.
  Grid(geom::GridGeometry geometry, std::span<const geom::Point> points);

  const geom::GridGeometry& geometry() const { return geometry_; }
  std::size_t point_count() const { return order_.size(); }
  std::size_t cell_count() const { return codes_.size(); }

  /// Sorted, de-duplicated cell codes of all non-empty cells.
  std::span<const std::uint64_t> codes() const { return codes_; }

  bool has_cell(geom::CellKey key) const;

  /// Indices (into the original span) of points in `key`'s cell; empty span
  /// when the cell has no points.
  std::span<const std::uint32_t> points_in(geom::CellKey key) const;

 private:
  std::size_t cell_slot(geom::CellKey key) const;  // npos when absent

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  geom::GridGeometry geometry_;
  std::vector<std::uint64_t> codes_;    // sorted cell codes
  std::vector<std::uint32_t> offsets_;  // size cells+1
  std::vector<std::uint32_t> order_;    // point indices grouped by cell
};

}  // namespace mrscan::index
