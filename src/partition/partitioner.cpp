#include "partition/partitioner.hpp"

#include <algorithm>

#include "partition/audit.hpp"
#include "util/assert.hpp"
#include "util/audit.hpp"

namespace mrscan::partition {

namespace {

/// The histogram's cells in the partitioner's iteration order, "first
/// along the y axis, and then along the x axis" (y varies fastest,
/// CellKey's ordering), addressed by rank. Every part owns one rank range,
/// so ownership needs no map. A column is one ix value; its cells are a
/// run of increasing iy, which is how ring neighbours are found.
class RankedCells {
 public:
  explicit RankedCells(const index::CellHistogram& hist) {
    struct Cell {
      geom::CellKey key;
      std::uint64_t count;
    };
    std::vector<Cell> cells;
    cells.reserve(hist.cell_count());
    for (const auto& e : hist.entries()) {
      cells.push_back(Cell{geom::cell_from_code(e.code), e.count});
    }
    // The histogram is in code order, which is grid order unless some
    // key is negative (the grid's origin is not its lower-left corner).
    const auto in_grid_order = [](const Cell& a, const Cell& b) {
      return a.key < b.key;
    };
    if (!std::is_sorted(cells.begin(), cells.end(), in_grid_order)) {
      std::sort(cells.begin(), cells.end(), in_grid_order);
    }
    keys_.reserve(cells.size());
    column_of_.reserve(cells.size());
    prefix_.reserve(cells.size() + 1);
    prefix_.push_back(0);
    for (std::size_t r = 0; r < cells.size(); ++r) {
      if (r == 0 || cells[r].key.ix != cells[r - 1].key.ix) {
        column_begin_.push_back(r);
      }
      keys_.push_back(cells[r].key);
      column_of_.push_back(column_begin_.size() - 1);
      prefix_.push_back(prefix_.back() + cells[r].count);
    }
    column_begin_.push_back(cells.size());
  }

  std::size_t size() const { return keys_.size(); }
  std::uint64_t code(std::size_t r) const { return geom::cell_code(keys_[r]); }
  std::uint64_t count(std::size_t r) const {
    return prefix_[r + 1] - prefix_[r];
  }
  /// Points in the cells of ranks [begin, end).
  std::uint64_t points(std::size_t begin, std::size_t end) const {
    return prefix_[end] - prefix_[begin];
  }

  /// For each rank r in [begin, end), in order, calls fn(n) for every
  /// cell n within `rings` (Chebyshev) of cell r, r itself excluded, by
  /// column and then by rank. Column indices are distinct ix values in
  /// increasing order, so the columns in reach lie within `rings` columns
  /// of r's own. The ranks are walked one column run at a time: within a
  /// run iy rises, so each neighbouring column's window
  /// [iy - rings, iy + rings] only moves forward, and the column is
  /// searched once per run, after which its cursor steps ahead.
  template <class Fn>
  void for_each_ring_neighbor(std::size_t begin, std::size_t end,
                              std::int32_t rings, Fn&& fn) const {
    const auto reach = static_cast<std::size_t>(rings);
    struct Cursor {
      std::size_t next;  // first rank of the column not below the window
      std::size_t end;   // the column's end rank
    };
    std::vector<Cursor> cursors;
    for (std::size_t run = begin; run < end;) {
      const std::size_t c = column_of_[run];
      const std::size_t run_end = std::min(end, column_begin_[c + 1]);
      const std::size_t first = c - std::min(c, reach);
      const std::size_t last =
          std::min(column_begin_.size() - 1, c + reach + 1);
      const std::int64_t lo_y = std::int64_t{keys_[run].iy} - rings;
      cursors.clear();
      for (std::size_t col = first; col < last; ++col) {
        const auto col_begin = keys_.begin() + column_begin_[col];
        const auto col_end = keys_.begin() + column_begin_[col + 1];
        const std::int64_t dx = std::int64_t{col_begin->ix} - keys_[run].ix;
        if (dx < -rings || dx > rings) continue;
        const auto it = std::lower_bound(
            col_begin, col_end, lo_y,
            [](const geom::CellKey& key, std::int64_t y) {
              return key.iy < y;
            });
        cursors.push_back({static_cast<std::size_t>(it - keys_.begin()),
                           column_begin_[col + 1]});
      }
      for (std::size_t r = run; r < run_end; ++r) {
        const std::int64_t r_lo = std::int64_t{keys_[r].iy} - rings;
        const std::int64_t r_hi = std::int64_t{keys_[r].iy} + rings;
        for (Cursor& cur : cursors) {
          while (cur.next != cur.end && keys_[cur.next].iy < r_lo) {
            ++cur.next;
          }
          for (std::size_t n = cur.next; n != cur.end && keys_[n].iy <= r_hi;
               ++n) {
            if (n != r) fn(n);
          }
        }
      }
      run = run_end;
    }
  }

 private:
  std::vector<geom::CellKey> keys_;
  std::vector<std::size_t> column_of_;
  std::vector<std::size_t> column_begin_;  // one past the end: size()
  std::vector<std::uint64_t> prefix_;      // prefix_[r]: points below rank r
};

/// One part at a time: its rank range and its shadow, the non-empty cells
/// it does not own that lie within the ring of a cell it does own. The
/// shadow depends only on the owned cells, so one counter per rank serves
/// every part: near_[r] is how many owned cells have r in their ring. The
/// ranks with a non-zero counter are listed in touched_, so moving on to
/// another part clears only those. A ring of 0 leaves every shadow empty.
class PartShadow {
 public:
  PartShadow(const RankedCells& cells, std::int32_t rings)
      : cells_(cells), rings_(rings), near_(cells.size(), 0) {}

  /// Take part [begin, end) and count its whole shadow.
  void assign(std::size_t begin, std::size_t end) {
    for (const std::size_t r : touched_) near_[r] = 0;
    touched_.clear();
    begin_ = begin;
    end_ = end;
    shadow_points_ = 0;
    cells_.for_each_ring_neighbor(begin, end, rings_, [&](std::size_t n) {
      if (near_[n]++ == 0) touched_.push_back(n);
    });
    for (const std::size_t r : touched_) {
      if (!owns(r)) shadow_points_ += cells_.count(r);
    }
  }

  /// Hand the first owned cell, the one next to the previous part, to that
  /// part; only that cell's ring can change shadow membership.
  void pop_front() {
    const std::size_t front = begin_++;
    cells_.for_each_ring_neighbor(
        front, front + 1, rings_, [&](std::size_t n) {
          if (--near_[n] == 0 && !owns(n)) shadow_points_ -= cells_.count(n);
        });
    if (near_[front] > 0) shadow_points_ += cells_.count(front);
  }

  std::size_t begin() const { return begin_; }
  std::size_t owned_cell_count() const { return end_ - begin_; }
  std::uint64_t owned_points() const { return cells_.points(begin_, end_); }
  std::uint64_t total_points() const { return owned_points() + shadow_points_; }

  /// The part as planned: owned cells in grid order, shadow cells sorted.
  PartitionPart export_part() const {
    PartitionPart part;
    part.owned_cells.reserve(owned_cell_count());
    for (std::size_t r = begin_; r < end_; ++r) {
      part.owned_cells.push_back(cells_.code(r));
    }
    for (const std::size_t r : touched_) {
      if (near_[r] > 0 && !owns(r) && cells_.count(r) > 0) {
        part.shadow_cells.push_back(cells_.code(r));
      }
    }
    std::sort(part.shadow_cells.begin(), part.shadow_cells.end());
    part.owned_points = owned_points();
    part.shadow_points = shadow_points_;
    return part;
  }

 private:
  bool owns(std::size_t r) const { return r >= begin_ && r < end_; }

  const RankedCells& cells_;
  const std::int32_t rings_;
  std::vector<std::uint32_t> near_;
  std::vector<std::size_t> touched_;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
  std::uint64_t shadow_points_ = 0;
};

}  // namespace

PartitionPlan plan_partitions(const index::CellHistogram& hist,
                              const geom::GridGeometry& geometry,
                              const PartitionerConfig& config) {
  MRSCAN_REQUIRE(config.target_parts >= 1);
  MRSCAN_REQUIRE(config.rebalance_threshold >= 1.0);
  MRSCAN_REQUIRE(config.cell_refine >= 1);
  // Shadow radius 2*Eps (two Eps-sized rings, 2k refined ones): the inner
  // Eps band completes owned points' neighbourhoods, the outer band makes
  // the inner band's *core flags* exact — a shadow point within Eps of an
  // owned cell sees its own full Eps-ball, so border attachment and core
  // connectivity never depend on which leaf owns which side of a cut.
  const auto rings = 2 * static_cast<std::int32_t>(config.cell_refine);

  const RankedCells cells(hist);
  if (cells.size() == 0) return PartitionPlan{geometry, rings, {}, 0};
  const std::size_t n_parts = std::min(config.target_parts, cells.size());

  const double target = static_cast<double>(hist.total_points()) /
                        static_cast<double>(n_parts);
  const double min_size = static_cast<double>(config.min_pts);

  // ---- Sequential packing with the running-difference rule (§3.1.2):
  // cells are appended until the next one would overflow the current
  // target; oversized partitions shrink the targets that follow. Part pi
  // owns ranks [begin[pi], begin[pi + 1]). ----
  std::vector<std::size_t> begin{0};
  std::uint64_t packed = 0;  // points in the part being packed
  double running_diff = 0.0;
  auto current_target = [&]() {
    return running_diff > 0.0 ? std::max(min_size, target - running_diff)
                              : target;
  };
  for (std::size_t r = 0; r < cells.size(); ++r) {
    const bool is_final_part = begin.size() == n_parts;
    const double would_be = static_cast<double>(packed + cells.count(r));
    if (r > begin.back() && !is_final_part && would_be > current_target()) {
      running_diff += static_cast<double>(packed) - target;
      begin.push_back(r);
      packed = 0;
    }
    packed += cells.count(r);
  }
  begin.push_back(cells.size());
  const std::size_t parts = begin.size() - 1;

  // Without shadow regions (the ablation) no cell is in any ring.
  PartShadow part(cells, config.shadow_regions ? rings : 0);
  std::vector<PartitionPart> planned(parts);
  std::uint64_t total_with_shadow = 0;
  for (std::size_t pi = 0; pi < parts; ++pi) {
    part.assign(begin[pi], begin[pi + 1]);
    planned[pi] = part.export_part();
    total_with_shadow += planned[pi].total_points();
  }

  // ---- Backward rebalancing (Figure 2c/2d): update the target to the
  // mean including shadow regions, then trim each partition from the back
  // of the sequence toward the front, handing trimmed cells to the
  // previous partition. The first partition absorbs the residue. A part
  // is planned again only if it is over the threshold or was handed
  // cells. ----
  double used_threshold = 0.0;
  std::uint64_t rebalance_moves = 0;
  if (config.rebalance && parts >= 2) {
    const double final_target = static_cast<double>(total_with_shadow) /
                                static_cast<double>(parts);
    used_threshold = config.rebalance_threshold * final_target;
    bool grew = false;  // the part after pi handed cells to pi
    for (std::size_t pi = parts; pi-- > 0;) {
      const bool over =
          pi >= 1 &&
          static_cast<double>(planned[pi].total_points()) > used_threshold;
      if (!grew && !over) continue;
      part.assign(begin[pi], begin[pi + 1]);
      while (pi >= 1 && part.owned_cell_count() > 1 &&
             static_cast<double>(part.total_points()) > used_threshold) {
        const std::uint64_t front = cells.count(part.begin());
        if (static_cast<double>(part.owned_points() - front) < min_size) {
          break;  // keep every partition at least MinPts points
        }
        part.pop_front();
        ++rebalance_moves;
      }
      grew = part.begin() > begin[pi];
      begin[pi] = part.begin();
      planned[pi] = part.export_part();
    }
  }

  PartitionPlan plan{geometry, rings, std::move(planned), rebalance_moves};
  if constexpr (util::kAuditEnabled) {
    audit_plan(plan, hist, config, used_threshold);
  }
  return plan;
}

}  // namespace mrscan::partition
