#include "index/grid.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace mrscan::index {

Grid::Grid(geom::GridGeometry geometry, std::span<const geom::Point> points)
    : geometry_(geometry) {
  MRSCAN_REQUIRE(geometry.cell_size > 0.0);

  // Pair each point index with its cell code, sort by code (stable within
  // a cell by original index because the index is the tiebreaker).
  std::vector<std::pair<std::uint64_t, std::uint32_t>> keyed;
  keyed.reserve(points.size());
  for (std::uint32_t i = 0; i < points.size(); ++i) {
    keyed.emplace_back(geom::cell_code(geometry_.cell_of(points[i])), i);
  }
  std::sort(keyed.begin(), keyed.end());

  order_.reserve(points.size());
  for (std::size_t i = 0; i < keyed.size(); ++i) {
    if (i == 0 || keyed[i].first != keyed[i - 1].first) {
      codes_.push_back(keyed[i].first);
      offsets_.push_back(static_cast<std::uint32_t>(i));
    }
    order_.push_back(keyed[i].second);
  }
  offsets_.push_back(static_cast<std::uint32_t>(keyed.size()));
}

std::size_t Grid::find(std::uint64_t code) const {
  const auto it = std::lower_bound(codes_.begin(), codes_.end(), code);
  if (it == codes_.end() || *it != code) return npos;
  return static_cast<std::size_t>(it - codes_.begin());
}

std::span<const std::uint32_t> Grid::points_in(geom::CellKey key) const {
  const std::size_t ordinal = find(geom::cell_code(key));
  if (ordinal == npos) return {};
  return members(ordinal);
}

}  // namespace mrscan::index
