#include "partition/partitioner.hpp"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "partition/audit.hpp"
#include "util/assert.hpp"
#include "util/audit.hpp"

namespace mrscan::partition {

namespace {

struct CellEntry {
  geom::CellKey key;
  std::uint64_t count;
};

/// Histogram cells in the partitioner's iteration order: "first along the
/// y axis, and then along the x axis" — y varies fastest (CellKey's
/// ordering).
std::vector<CellEntry> cells_in_grid_order(const index::CellHistogram& hist) {
  std::vector<CellEntry> cells;
  cells.reserve(hist.cell_count());
  for (const auto& e : hist.entries()) {
    cells.push_back(CellEntry{geom::cell_from_code(e.code), e.count});
  }
  std::sort(cells.begin(), cells.end(),
            [](const CellEntry& a, const CellEntry& b) {
              return a.key < b.key;
            });
  return cells;
}

/// Mutable rebalancing state: ownership map plus per-part incremental
/// shadow bookkeeping, so moving one cell is O(neighbourhood), not O(grid).
class Rebalancer {
 public:
  Rebalancer(std::vector<std::deque<std::uint64_t>> owned,
             const index::CellHistogram& hist, bool shadow_regions,
             std::int32_t rings)
      : owned_(std::move(owned)),
        hist_(hist),
        shadow_regions_(shadow_regions),
        rings_(rings) {
    parts_ = owned_.size();
    shadow_.resize(parts_);
    owned_points_.assign(parts_, 0);
    shadow_points_.assign(parts_, 0);
    for (std::uint32_t pi = 0; pi < parts_; ++pi) {
      for (const std::uint64_t code : owned_[pi]) {
        owner_[code] = pi;
        owned_points_[pi] += count_of(code);
      }
    }
    for (std::uint32_t pi = 0; pi < parts_; ++pi) rebuild_shadow(pi);
  }

  std::uint32_t part_count() const {
    return static_cast<std::uint32_t>(parts_);
  }

  std::uint64_t total_points(std::uint32_t pi) const {
    return owned_points_[pi] + shadow_points_[pi];
  }
  std::uint64_t owned_points(std::uint32_t pi) const {
    return owned_points_[pi];
  }
  std::size_t owned_cell_count(std::uint32_t pi) const {
    return owned_[pi].size();
  }
  std::uint64_t total_with_shadow() const {
    std::uint64_t t = 0;
    for (std::uint32_t pi = 0; pi < parts_; ++pi) t += total_points(pi);
    return t;
  }

  std::uint64_t front_cell_count(std::uint32_t pi) const {
    return count_of(owned_[pi].front());
  }

  /// Move part pi's first owned cell (earliest in grid order, adjacent to
  /// part pi-1) to part pi-1, updating both parts' shadows incrementally.
  void move_front_cell(std::uint32_t pi) {
    MRSCAN_ASSERT(pi >= 1 && owned_[pi].size() > 1);
    const std::uint64_t code = owned_[pi].front();
    owned_[pi].pop_front();
    owned_points_[pi] -= count_of(code);
    owner_[code] = pi - 1;
    owned_[pi - 1].push_back(code);
    owned_points_[pi - 1] += count_of(code);

    // Shadow membership can only change for the moved cell and its
    // neighbours, and only for the two involved parts.
    refresh_around(code, pi);
    refresh_around(code, pi - 1);
  }

  /// Export final per-part cell lists (owned in grid-order, shadows sorted)
  /// and counts.
  std::vector<PartitionPart> export_parts() const {
    std::vector<PartitionPart> out(parts_);
    for (std::uint32_t pi = 0; pi < parts_; ++pi) {
      out[pi].owned_cells.assign(owned_[pi].begin(), owned_[pi].end());
      out[pi].shadow_cells.assign(shadow_[pi].begin(), shadow_[pi].end());
      std::sort(out[pi].shadow_cells.begin(), out[pi].shadow_cells.end());
      out[pi].owned_points = owned_points_[pi];
      out[pi].shadow_points = shadow_points_[pi];
    }
    return out;
  }

 private:
  std::uint64_t count_of(std::uint64_t code) const {
    return hist_.count_of(geom::cell_from_code(code));
  }

  bool owned_by(std::uint64_t code, std::uint32_t pi) const {
    const auto it = owner_.find(code);
    return it != owner_.end() && it->second == pi;
  }

  /// True when `code` qualifies as a shadow cell of part pi: non-empty,
  /// not owned by pi, and adjacent to a cell pi owns.
  bool qualifies_as_shadow(std::uint64_t code, std::uint32_t pi) const {
    if (owned_by(code, pi)) return false;
    if (count_of(code) == 0) return false;
    bool adjacent = false;
    geom::for_each_neighbor_within(geom::cell_from_code(code), rings_,
                                   [&](geom::CellKey nbr) {
                                     if (owned_by(geom::cell_code(nbr), pi))
                                       adjacent = true;
                                   });
    return adjacent;
  }

  void set_shadow(std::uint64_t code, std::uint32_t pi, bool member) {
    if (!shadow_regions_) return;
    const bool present = shadow_[pi].contains(code);
    if (member && !present) {
      shadow_[pi].insert(code);
      shadow_points_[pi] += count_of(code);
    } else if (!member && present) {
      shadow_[pi].erase(code);
      shadow_points_[pi] -= count_of(code);
    }
  }

  /// Re-evaluate shadow membership of `code` and its 8 neighbours for pi.
  void refresh_around(std::uint64_t code, std::uint32_t pi) {
    set_shadow(code, pi, qualifies_as_shadow(code, pi));
    geom::for_each_neighbor_within(
        geom::cell_from_code(code), rings_, [&](geom::CellKey nbr) {
          const std::uint64_t ncode = geom::cell_code(nbr);
          set_shadow(ncode, pi, qualifies_as_shadow(ncode, pi));
        });
  }

  void rebuild_shadow(std::uint32_t pi) {
    shadow_[pi].clear();
    shadow_points_[pi] = 0;
    if (!shadow_regions_) return;
    for (const std::uint64_t code : owned_[pi]) {
      geom::for_each_neighbor_within(
          geom::cell_from_code(code), rings_, [&](geom::CellKey nbr) {
            const std::uint64_t ncode = geom::cell_code(nbr);
            if (owned_by(ncode, pi) || count_of(ncode) == 0) return;
            if (shadow_[pi].insert(ncode).second) {
              shadow_points_[pi] += count_of(ncode);
            }
          });
    }
  }

  std::size_t parts_ = 0;
  std::vector<std::deque<std::uint64_t>> owned_;
  const index::CellHistogram& hist_;
  bool shadow_regions_ = true;
  std::int32_t rings_ = 1;
  std::unordered_map<std::uint64_t, std::uint32_t> owner_;
  std::vector<std::unordered_set<std::uint64_t>> shadow_;
  std::vector<std::uint64_t> owned_points_;
  std::vector<std::uint64_t> shadow_points_;
};

}  // namespace

PartitionPlan plan_partitions(const index::CellHistogram& hist,
                              const geom::GridGeometry& geometry,
                              const PartitionerConfig& config) {
  MRSCAN_REQUIRE(config.target_parts >= 1);
  MRSCAN_REQUIRE(config.rebalance_threshold >= 1.0);

  const std::vector<CellEntry> cells = cells_in_grid_order(hist);
  if (cells.empty()) {
    return PartitionPlan{
        geometry, 2 * static_cast<std::int32_t>(config.cell_refine), {}, 0};
  }
  const std::size_t n_parts = std::min(config.target_parts, cells.size());

  const double target = static_cast<double>(hist.total_points()) /
                        static_cast<double>(n_parts);
  const double min_size = static_cast<double>(config.min_pts);

  // ---- Sequential packing with the running-difference rule (§3.1.2):
  // cells are appended until the next one would overflow the current
  // target; oversized partitions shrink the targets that follow. ----
  std::vector<std::deque<std::uint64_t>> owned(1);
  std::vector<std::uint64_t> owned_points(1, 0);
  double running_diff = 0.0;
  auto current_target = [&]() {
    return running_diff > 0.0 ? std::max(min_size, target - running_diff)
                              : target;
  };

  for (const CellEntry& cell : cells) {
    const bool is_final_part = owned.size() == n_parts;
    const double would_be =
        static_cast<double>(owned_points.back() + cell.count);
    if (!owned.back().empty() && !is_final_part &&
        would_be > current_target()) {
      running_diff += static_cast<double>(owned_points.back()) - target;
      owned.emplace_back();
      owned_points.push_back(0);
    }
    owned.back().push_back(geom::cell_code(cell.key));
    owned_points.back() += cell.count;
  }

  MRSCAN_REQUIRE(config.cell_refine >= 1);
  // Shadow radius 2*Eps (two Eps-sized rings, 2k refined ones): the inner
  // Eps band completes owned points' neighbourhoods, the outer band makes
  // the inner band's *core flags* exact — a shadow point within Eps of an
  // owned cell sees its own full Eps-ball, so border attachment and core
  // connectivity never depend on which leaf owns which side of a cut.
  const auto rings = 2 * static_cast<std::int32_t>(config.cell_refine);
  Rebalancer reb(std::move(owned), hist, config.shadow_regions, rings);

  // ---- Backward rebalancing (Figure 2c/2d): update the target to the
  // mean including shadow regions, then trim each partition from the back
  // of the sequence toward the front, handing trimmed cells to the
  // previous partition. The first partition absorbs the residue. ----
  double used_threshold = 0.0;
  std::uint64_t rebalance_moves = 0;
  if (config.rebalance && reb.part_count() >= 2) {
    const double final_target =
        static_cast<double>(reb.total_with_shadow()) /
        static_cast<double>(reb.part_count());
    const double threshold = config.rebalance_threshold * final_target;
    used_threshold = threshold;

    for (std::uint32_t pi = reb.part_count() - 1; pi >= 1; --pi) {
      while (reb.owned_cell_count(pi) > 1 &&
             static_cast<double>(reb.total_points(pi)) > threshold) {
        const std::uint64_t front = reb.front_cell_count(pi);
        if (static_cast<double>(reb.owned_points(pi) - front) < min_size) {
          break;  // keep every partition at least MinPts points
        }
        reb.move_front_cell(pi);
        ++rebalance_moves;
      }
    }
  }

  PartitionPlan plan{geometry, rings, reb.export_parts(), rebalance_moves};
  if constexpr (util::kAuditEnabled) {
    audit_plan(plan, hist, config, used_threshold);
  }
  return plan;
}

}  // namespace mrscan::partition
