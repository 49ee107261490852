// A partition's points, cut from a plan and the grid over the input:
// each part's owned points followed by its shadow points, optionally
// applying the partitioner's shadow representative-point optimisation
// (§3.1.3): for extremely dense shadow cells, take 8 geometrically-
// selected representatives instead of the full cell, trading a possible
// missed merge for drastically less data written.
//
// One walk over a part's cells, the owned cells in the plan's order and
// then the shadow cells in code order, serves every consumer: a resident
// run's leaf gathering its own points on its pool worker
// (gather_partition), the count of those points (count_partition), the
// out-of-core spill (materialize_partitions_to_files) and the serial
// materialize_partitions. So a leaf sees the same points in the same
// order whichever way its partition reached it.
#pragma once

#include <filesystem>
#include <functional>
#include <span>

#include "index/grid.hpp"
#include "io/mapped_segment.hpp"
#include "partition/plan.hpp"
#include "sim/titan.hpp"
#include "util/thread_pool.hpp"

namespace mrscan::partition {

struct MaterializeConfig {
  /// Replace shadow-cell contents with representatives when a shadow cell
  /// holds more than this many points (0 disables the optimisation).
  std::size_t shadow_rep_threshold = 0;
};

/// What a part takes from one cell: indices into the grid's points,
/// ascending.
using CellPoints = std::function<void(std::span<const std::uint32_t>)>;

/// Calls `fn` once per non-empty owned cell of part `part_index`, in the
/// plan's order, with the cell's members. `grid` must be built with the
/// plan's geometry.
void for_each_owned_cell(const PartitionPlan& plan, std::size_t part_index,
                         const index::Grid& grid, const CellPoints& fn);

/// Append one partition's owned points, then its shadow points, to `out`:
/// the points a clustering leaf loads, equal to materialize_partition's
/// owned followed by its shadow.
void gather_partition(const PartitionPlan& plan, std::size_t part_index,
                      const index::Grid& grid,
                      std::span<const geom::Point> points,
                      const MaterializeConfig& config, geom::PointSet& out);

/// The record counts materialize_partition yields for the part, counted
/// without copying a point.
io::SegmentCounts count_partition(const PartitionPlan& plan,
                                  std::size_t part_index,
                                  const index::Grid& grid,
                                  std::span<const geom::Point> points,
                                  const MaterializeConfig& config = {});

/// Extract one partition's owned and shadow points. `grid` must be built
/// over `points` with the plan's geometry.
io::Segment materialize_partition(const PartitionPlan& plan,
                                  std::size_t part_index,
                                  const index::Grid& grid,
                                  std::span<const geom::Point> points,
                                  const MaterializeConfig& config = {});

/// Extract each partition's owned and shadow points, one part after
/// another.
std::vector<io::Segment> materialize_partitions(
    const PartitionPlan& plan, const index::Grid& grid,
    std::span<const geom::Point> points,
    const MaterializeConfig& config = {});

/// Out-of-core mode: materialize each partition and spool it to a
/// per-leaf segment file under `dir` (io::segment_file_path naming)
/// instead of keeping it resident — only `pool`-many segments are in
/// flight at once, so peak residency during partition output stays
/// bounded by the worker count, not the leaf count. Returns the per-leaf
/// record counts (DESIGN §15).
std::vector<io::SegmentCounts> materialize_partitions_to_files(
    const PartitionPlan& plan, const index::Grid& grid,
    std::span<const geom::Point> points, const std::filesystem::path& dir,
    util::ThreadPool& pool, const MaterializeConfig& config = {});

/// Modeled PFS cost of re-reading one materialized partition during leaf
/// recovery: a single surviving sibling streams the dead leaf's segment
/// back from the segmented partition file (§3.1.3's layout records each
/// partition's offset, so the re-read is one contiguous stream). This
/// PFS-backed restart is what makes leaf failure recoverable at all.
/// Takes the leaf's record counts, so out-of-core runs charge it too.
double segment_reread_seconds(const io::SegmentCounts& counts,
                              const sim::LustreParams& lustre);

}  // namespace mrscan::partition
