// The mutable Eps/(2*sqrt(2)) cell grid backing the serving path
// (DESIGN §14).
//
// The batch cell-graph path buckets a leaf's points once, into an
// immutable index::Grid. This grid instead lives for the whole service
// lifetime and absorbs per-epoch inserts and removals. It keeps the
// invariants that make the cell-graph phase deterministic and exact:
//   * cell side is cluster::cell_graph_side(eps) with the origin fixed at
//     (0,0), so cell membership never shifts as points come and go;
//   * cells live in a dense table addressed by a stable cell index; the
//     code -> index hash index is only looked up, never iterated, so no
//     result depends on hash order;
//   * members are kept in ascending point-id order — stable across epochs
//     because ids are global, not slot-dependent.
// A cell keeps its index while it is occupied. A cell that empties stays
// in the table (with no members) until its owner calls release(), so an
// epoch can still address the cells it emptied; released indices are
// reused by later inserts. Owners keep per-cell state in arrays indexed
// by cell index, sized by table_size().
//
// Members carry the owning service's slot index alongside the id so the
// epoch machinery can reach point records without a second lookup.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "cluster/cell_graph_ops.hpp"
#include "geometry/cell.hpp"
#include "geometry/point.hpp"

namespace mrscan::cluster {

/// Cells in the ring-3 neighbourhood of a cell (itself excluded).
inline constexpr int kRingCells =
    (2 * kCellGraphRings + 1) * (2 * kCellGraphRings + 1) - 1;

/// Offset k of the ring-3 neighbourhood, numbered in
/// geom::for_each_neighbor_within order. Offsets k and kRingCells - 1 - k
/// are mirror images: if B is at offset k of A, A is at offset
/// ring_mirror(k) of B.
geom::CellKey ring_offset(int k);
inline constexpr int ring_mirror(int k) { return kRingCells - 1 - k; }

class MutableCellGrid {
 public:
  struct Member {
    geom::PointId id = 0;
    std::uint32_t slot = 0;
  };

  static constexpr std::uint32_t kNoCell = 0xffffffffu;

  explicit MutableCellGrid(double side) : side_(side) {}

  /// Packed cell code of `p`, or nullopt when `p` lies outside the grid's
  /// domain: a non-finite coordinate, or a cell whose ring-3 neighbourhood
  /// does not fit in int32 cell indices.
  std::optional<std::uint64_t> code_of(const geom::Point& p) const;

  /// Index of the cell with this code, or kNoCell when it is not in the
  /// table.
  std::uint32_t find(std::uint64_t code) const { return lookup_.find(code); }

  /// Index of the cell at ring-3 offset `k` of `cell`, or kNoCell.
  std::uint32_t neighbor(std::uint32_t cell, int k) const;

  /// Insert a member into the cell with this code (creating the cell if
  /// needed), keeping its members sorted by point id; returns the cell's
  /// index. The id must not already be present in the cell.
  std::uint32_t insert(std::uint64_t code, geom::PointId id,
                       std::uint32_t slot);

  /// Remove the member with this id from the cell. The cell stays in the
  /// table even when it empties; the id must be present.
  void remove(std::uint32_t cell, geom::PointId id);

  /// Drop an empty cell from the table; its index may be handed out again
  /// by a later insert.
  void release(std::uint32_t cell);

  std::uint64_t code(std::uint32_t cell) const { return cells_[cell].code; }

  /// Members of the cell (ascending id order).
  std::span<const Member> members(std::uint32_t cell) const {
    return cells_[cell].members;
  }

  /// Cells in the table (occupied plus emptied-but-unreleased).
  std::size_t cell_count() const { return lookup_.size(); }

  /// One past the largest cell index ever handed out.
  std::size_t table_size() const { return cells_.size(); }

 private:
  struct Cell {
    std::uint64_t code = 0;
    std::vector<Member> members;
  };

  /// Cell code -> cell index. Every neighbourhood walk resolves its 48
  /// neighbours here, so it is a flat open-addressing table (linear
  /// probing, at most half full, backward-shift erase) that answers a
  /// lookup from one cache line instead of chasing std::unordered_map
  /// nodes. Only looked up, never iterated.
  class CodeIndex {
   public:
    std::uint32_t find(std::uint64_t code) const {
      if (slots_.empty()) return kNoCell;
      for (std::size_t i = home(code);; i = (i + 1) & mask_) {
        if (slots_[i].cell == kNoCell || slots_[i].code == code) {
          return slots_[i].cell;
        }
      }
    }
    /// `code` must not be present.
    void insert(std::uint64_t code, std::uint32_t cell);
    /// `code` must be present.
    void erase(std::uint64_t code);
    std::size_t size() const { return size_; }

   private:
    struct Slot {
      std::uint64_t code = 0;
      std::uint32_t cell = kNoCell;  // kNoCell: empty
    };
    std::size_t home(std::uint64_t code) const {
      return geom::CellKeyHash{}(geom::cell_from_code(code)) & mask_;
    }
    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
  };

  double side_ = 1.0;
  std::vector<Cell> cells_;
  std::vector<std::uint32_t> free_cells_;
  CodeIndex lookup_;
};

}  // namespace mrscan::cluster
