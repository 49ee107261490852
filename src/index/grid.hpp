// Uniform grid bucketing of a point set: the one immutable point-by-cell
// index.
//
// Every batch grouping of points by cell goes through it: the
// partitioner's Eps (or Eps/k under grid refinement) cells, whose shadow
// rings materialize_partitions copies whole into each leaf's segment
// (§3.1.1); the cell-graph leaf kernel's Eps/(2*sqrt(2)) cells (DESIGN
// §12); the dense-box link kernel's buckets of box centres; and the leaf
// summary's per-cell walk (§3.3).
//
// Storage is CSR-style: cells are kept sorted by code, and each cell's
// point indices are contiguous and in ascending index order. Iterating
// cells by ordinal, and a cell's members(), is therefore deterministic by
// construction (DESIGN §8).
//
// The build groups points by cell in linear work, with a stable
// least-significant-digit radix sort. Each point's code is computed once
// and ranked in the codes' bounding box, (ux - min_ux) * span_y +
// (uy - min_uy) over the code's two uint32 halves. The rank orders as
// the uint64 code does, so codes() comes out ascending, and only the
// digits of the largest rank are sorted. Point indices enter in
// ascending order and every pass is stable, so each cell's members leave
// in ascending order with no tiebreak: the layout is exactly the one a
// comparison sort of (code, index) pairs gives.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geometry/cell.hpp"
#include "geometry/point.hpp"

namespace mrscan::index {

class Grid {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Bucket `points`; members() and points_in() return indices into this
  /// span.
  Grid(geom::GridGeometry geometry, std::span<const geom::Point> points);

  const geom::GridGeometry& geometry() const { return geometry_; }
  std::size_t point_count() const { return order_.size(); }
  std::size_t cell_count() const { return codes_.size(); }

  /// Sorted, de-duplicated cell codes of all non-empty cells; a cell's
  /// ordinal is its position here.
  std::span<const std::uint64_t> codes() const { return codes_; }

  /// Ordinal of the cell with this code, or npos when it has no points.
  std::size_t find(std::uint64_t code) const;

  /// Indices (into the original span) of the points in the cell with this
  /// ordinal, ascending.
  std::span<const std::uint32_t> members(std::size_t ordinal) const {
    return std::span<const std::uint32_t>(order_).subspan(
        offsets_[ordinal], offsets_[ordinal + 1] - offsets_[ordinal]);
  }

  /// Indices (into the original span) of points in `key`'s cell; empty span
  /// when the cell has no points.
  std::span<const std::uint32_t> points_in(geom::CellKey key) const;

 private:
  geom::GridGeometry geometry_;
  std::vector<std::uint64_t> codes_;    // sorted cell codes
  std::vector<std::uint32_t> offsets_;  // size cells+1
  std::vector<std::uint32_t> order_;    // point indices grouped by cell
};

}  // namespace mrscan::index
