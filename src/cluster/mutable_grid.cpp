#include "cluster/mutable_grid.hpp"

#include <algorithm>
#include <array>

#include "util/assert.hpp"

namespace mrscan::cluster {

namespace {

using RingTable = std::array<geom::CellKey, kRingCells>;

// Built from for_each_neighbor_within itself, so offset numbering is that
// scan order by construction.
const RingTable& ring_table() {
  static const RingTable table = [] {
    RingTable t{};
    int k = 0;
    geom::for_each_neighbor_within(
        geom::CellKey{0, 0}, kCellGraphRings,
        [&](geom::CellKey key) { t[static_cast<std::size_t>(k++)] = key; });
    return t;
  }();
  return table;
}

}  // namespace

geom::CellKey ring_offset(int k) {
  return ring_table()[static_cast<std::size_t>(k)];
}

std::optional<std::uint64_t> MutableCellGrid::code_of(
    const geom::Point& p) const {
  const auto key =
      geom::GridGeometry{0.0, 0.0, side_}.checked_cell_of(p, kCellGraphRings);
  if (!key) return std::nullopt;
  return geom::cell_code(*key);
}

std::uint32_t MutableCellGrid::neighbor(std::uint32_t cell, int k) const {
  const geom::CellKey key = geom::cell_from_code(cells_[cell].code);
  const geom::CellKey off = ring_offset(k);
  return find(geom::cell_code(geom::CellKey{key.ix + off.ix, key.iy + off.iy}));
}

std::uint32_t MutableCellGrid::insert(std::uint64_t code, geom::PointId id,
                                      std::uint32_t slot) {
  std::uint32_t cell = find(code);
  if (cell == kNoCell) {
    if (free_cells_.empty()) {
      cell = static_cast<std::uint32_t>(cells_.size());
      cells_.emplace_back();
    } else {
      cell = free_cells_.back();
      free_cells_.pop_back();
    }
    cells_[cell].code = code;
    lookup_.insert(code, cell);
  }
  auto& members = cells_[cell].members;
  const auto it = std::lower_bound(
      members.begin(), members.end(), id,
      [](const Member& m, geom::PointId v) { return m.id < v; });
  MRSCAN_REQUIRE(it == members.end() || it->id != id);
  members.insert(it, Member{id, slot});
  return cell;
}

void MutableCellGrid::remove(std::uint32_t cell, geom::PointId id) {
  auto& members = cells_[cell].members;
  const auto it = std::lower_bound(
      members.begin(), members.end(), id,
      [](const Member& m, geom::PointId v) { return m.id < v; });
  MRSCAN_REQUIRE(it != members.end() && it->id == id);
  members.erase(it);
}

void MutableCellGrid::release(std::uint32_t cell) {
  Cell& c = cells_[cell];
  MRSCAN_REQUIRE(c.members.empty());
  lookup_.erase(c.code);
  c.members.shrink_to_fit();
  free_cells_.push_back(cell);
}

void MutableCellGrid::CodeIndex::insert(std::uint64_t code,
                                        std::uint32_t cell) {
  if (2 * (size_ + 1) > slots_.size()) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::max<std::size_t>(16, 2 * old.size()), Slot{});
    mask_ = slots_.size() - 1;
    size_ = 0;
    for (const Slot& s : old) {
      if (s.cell != kNoCell) insert(s.code, s.cell);
    }
  }
  std::size_t i = home(code);
  while (slots_[i].cell != kNoCell) {
    MRSCAN_ASSERT(slots_[i].code != code);
    i = (i + 1) & mask_;
  }
  slots_[i] = Slot{code, cell};
  ++size_;
}

void MutableCellGrid::CodeIndex::erase(std::uint64_t code) {
  std::size_t i = home(code);
  while (slots_[i].code != code || slots_[i].cell == kNoCell) {
    MRSCAN_ASSERT(slots_[i].cell != kNoCell);
    i = (i + 1) & mask_;
  }
  // Backward-shift deletion: pull later entries of the probe run into the
  // hole unless their home lies cyclically in (hole, entry].
  for (std::size_t j = (i + 1) & mask_; slots_[j].cell != kNoCell;
       j = (j + 1) & mask_) {
    const std::size_t h = home(slots_[j].code);
    const bool stays = i <= j ? (i < h && h <= j) : (i < h || h <= j);
    if (stays) continue;
    slots_[i] = slots_[j];
    i = j;
  }
  slots_[i] = Slot{};
  --size_;
}

}  // namespace mrscan::cluster
