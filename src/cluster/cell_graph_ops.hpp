// Shared cell-graph primitives (DESIGN §12, §14).
//
// The batch cell-graph cluster path (gpu/mrscan_gpu.cpp) and the
// long-lived clustering service (src/serve) connect clusters the same
// way: cells within kCellGraphRings Chebyshev distance are linked when a
// bichromatic closest-pair test over their core points finds a pair
// within Eps. The test itself — early-exiting at the first Eps-close
// pair, charging one op per distance computed — lives here so both
// consumers provably run the identical kernel.
#pragma once

#include <algorithm>
#include <cstdint>

#include "geometry/bbox.hpp"
#include "geometry/point.hpp"

namespace mrscan::cluster {

/// Cell side for the cell-graph formulation: Eps / (2 * sqrt(2)), i.e. a
/// cell diagonal of Eps/2, so every pair of points sharing a cell is
/// mutually within Eps. Both cell-graph grids put their origin at (0,0),
/// so a point's cell never depends on which other points share its leaf.
inline double cell_graph_side(double eps) {
  return eps * 0.3535533905932738;  // 1 / (2 * sqrt(2))
}

/// Cells at Chebyshev distance d have boxes at least (d-1) * side apart;
/// with side Eps/(2*sqrt(2)) the largest d whose corner gap
/// sqrt(2)*(d-1)*side can still be <= Eps is 3.
inline constexpr std::int32_t kCellGraphRings = 3;

/// Squared gap between two boxes (0 for touching/overlapping): the
/// Eps-reachability prefilter for a cell-pair connection — when the gap
/// between the cells' core-point bounding boxes exceeds Eps, no core
/// pair can link them and the closest-pair test is skipped entirely.
inline double box_gap2(const geom::BBox& a, const geom::BBox& b) {
  const double gx = std::max({0.0, a.min_x - b.max_x, b.min_x - a.max_x});
  const double gy = std::max({0.0, a.min_y - b.max_y, b.min_y - a.max_y});
  return gx * gx + gy * gy;
}

/// Bichromatic closest-pair Eps test: true when some cross pair from the
/// two point sets is within Eps (squared threshold `eps2`), early-exiting
/// at the first hit. `a(i)` / `b(j)` return the i-th / j-th point of each
/// side; every distance computed adds one to `ops` (the cost-model
/// charge). Scan order is (i, j) row-major, so the op count for a given
/// pair of sets is deterministic.
template <typename PointAtA, typename PointAtB>
bool bcp_within_eps(std::size_t count_a, std::size_t count_b, PointAtA&& a,
                    PointAtB&& b, double eps2, std::uint64_t& ops) {
  for (std::size_t i = 0; i < count_a; ++i) {
    const geom::Point& pa = a(i);
    for (std::size_t j = 0; j < count_b; ++j) {
      ++ops;
      if (geom::dist2(pa, b(j)) <= eps2) return true;
    }
  }
  return false;
}

}  // namespace mrscan::cluster
