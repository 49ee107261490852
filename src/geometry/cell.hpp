// Eps x Eps grid-cell addressing.
//
// The partitioner (§3.1.2) and the merge algorithm (§3.3) both work on a
// regular grid whose cells are Eps on each side: a partition is a set of
// cells, the shadow region is the set of neighbouring cells, and
// representative points are selected per cell. CellKey is the integer
// address of one such cell relative to a grid origin.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>

#include "geometry/point.hpp"

namespace mrscan::geom {

struct CellKey {
  std::int32_t ix = 0;
  std::int32_t iy = 0;

  friend bool operator==(const CellKey&, const CellKey&) = default;
  /// Row-major order: y-major then x, matching the partitioner's iteration
  /// order over the grid ("first along the y axis, and then along the x
  /// axis", §3.1.2).
  friend auto operator<=>(const CellKey& a, const CellKey& b) {
    if (auto c = a.ix <=> b.ix; c != 0) return c;
    return a.iy <=> b.iy;
  }
};

/// 64-bit packing of a cell key (for hashing / sorting).
inline std::uint64_t cell_code(CellKey k) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.ix))
          << 32) |
         static_cast<std::uint32_t>(k.iy);
}

inline CellKey cell_from_code(std::uint64_t code) {
  return CellKey{static_cast<std::int32_t>(code >> 32),
                 static_cast<std::int32_t>(code & 0xffffffffULL)};
}

struct CellKeyHash {
  std::size_t operator()(CellKey k) const {
    std::uint64_t z = cell_code(k) + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(z ^ (z >> 31));
  }
};

/// Geometry of a grid: origin plus cell side (== Eps).
struct GridGeometry {
  double origin_x = 0.0;
  double origin_y = 0.0;
  double cell_size = 1.0;  // == Eps

  friend bool operator==(const GridGeometry&, const GridGeometry&) = default;

  /// The cell holding `p`. Unchecked: the cast is undefined unless `p`
  /// lies in the domain checked_cell_of admits, which MrScan::run requires
  /// of its input on every grid it builds.
  CellKey cell_of(const Point& p) const {
    return CellKey{
        static_cast<std::int32_t>(std::floor((p.x - origin_x) / cell_size)),
        static_cast<std::int32_t>(std::floor((p.y - origin_y) / cell_size))};
  }

  /// cell_of for unchecked input: nullopt when `p` lies outside the
  /// grid's domain, i.e. has a non-finite coordinate or a cell whose
  /// `rings`-ring neighbourhood does not fit in int32 cell indices.
  std::optional<CellKey> checked_cell_of(const Point& p,
                                         std::int32_t rings) const {
    const double lo =
        static_cast<double>(std::numeric_limits<std::int32_t>::min()) + rings;
    const double hi =
        static_cast<double>(std::numeric_limits<std::int32_t>::max()) - rings;
    const double ix = std::floor((p.x - origin_x) / cell_size);
    const double iy = std::floor((p.y - origin_y) / cell_size);
    // NaN fails both comparisons; +-inf fails one of them.
    if (!(ix >= lo && ix <= hi && iy >= lo && iy <= hi)) return std::nullopt;
    return CellKey{static_cast<std::int32_t>(ix),
                   static_cast<std::int32_t>(iy)};
  }

  double cell_min_x(CellKey k) const { return origin_x + k.ix * cell_size; }
  double cell_min_y(CellKey k) const { return origin_y + k.iy * cell_size; }
  double cell_max_x(CellKey k) const { return cell_min_x(k) + cell_size; }
  double cell_max_y(CellKey k) const { return cell_min_y(k) + cell_size; }
};

/// All cells within `rings` Chebyshev distance of k (excluding k itself).
/// With cells of side Eps/rings, these are exactly the cells that can hold
/// points within Eps of k — the shadow neighbourhood of a refined grid
/// (the paper's §5.1.2 suggestion to "subdivide grid cells when they have
/// extremely high density").
inline void for_each_neighbor_within(CellKey k, std::int32_t rings,
                                     auto&& fn) {
  for (std::int32_t dy = -rings; dy <= rings; ++dy) {
    for (std::int32_t dx = -rings; dx <= rings; ++dx) {
      if (dx == 0 && dy == 0) continue;
      fn(CellKey{k.ix + dx, k.iy + dy});
    }
  }
}

}  // namespace mrscan::geom
