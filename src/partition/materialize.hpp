// Turn a partition plan plus the actual points into per-partition segments
// (owned points followed by shadow points), optionally applying the
// partitioner's shadow representative-point optimisation (§3.1.3): for
// extremely dense shadow cells, write 8 geometrically-selected
// representatives instead of the full cell, trading a possible missed merge
// for drastically less data written.
#pragma once

#include <filesystem>
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

/// Extract one partition's owned and shadow points. `grid` must be built
/// over `points` with the plan's geometry.
io::Segment materialize_partition(const PartitionPlan& plan,
                                  std::size_t part_index,
                                  const index::Grid& grid,
                                  std::span<const geom::Point> points,
                                  const MaterializeConfig& config = {});

/// Extract each partition's owned and shadow points (resident mode).
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
