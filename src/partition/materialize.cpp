#include "partition/materialize.hpp"

#include "geometry/rep_points.hpp"
#include "io/point_file.hpp"
#include "util/assert.hpp"

namespace mrscan::partition {

io::Segment materialize_partition(const PartitionPlan& plan,
                                  std::size_t part_index,
                                  const index::Grid& grid,
                                  std::span<const geom::Point> points,
                                  const MaterializeConfig& config) {
  MRSCAN_REQUIRE_MSG(grid.geometry() == plan.geometry,
                     "grid geometry does not match the plan");
  MRSCAN_REQUIRE(part_index < plan.parts.size());

  const PartitionPart& part = plan.parts[part_index];
  io::Segment seg;

  seg.owned.reserve(part.owned_points);
  for (const std::uint64_t code : part.owned_cells) {
    for (const std::uint32_t idx :
         grid.points_in(geom::cell_from_code(code))) {
      seg.owned.push_back(points[idx]);
    }
  }

  for (const std::uint64_t code : part.shadow_cells) {
    const geom::CellKey key = geom::cell_from_code(code);
    const auto members = grid.points_in(key);
    if (config.shadow_rep_threshold != 0 &&
        members.size() > config.shadow_rep_threshold) {
      // Dense shadow cell: ship representatives only. Quality of the
      // local DBSCAN is preserved (the cell still asserts density); the
      // merge step may occasionally miss a combine (§3.1.3).
      const auto reps = geom::select_cell_representatives(
          plan.geometry, key, points, members);
      for (const std::uint32_t idx : reps) {
        seg.shadow.push_back(points[idx]);
      }
    } else {
      for (const std::uint32_t idx : members) {
        seg.shadow.push_back(points[idx]);
      }
    }
  }
  return seg;
}

std::vector<io::Segment> materialize_partitions(
    const PartitionPlan& plan, const index::Grid& grid,
    std::span<const geom::Point> points, const MaterializeConfig& config) {
  std::vector<io::Segment> segments(plan.parts.size());
  for (std::size_t pi = 0; pi < plan.parts.size(); ++pi) {
    segments[pi] = materialize_partition(plan, pi, grid, points, config);
  }
  return segments;
}

std::vector<io::SegmentCounts> materialize_partitions_to_files(
    const PartitionPlan& plan, const index::Grid& grid,
    std::span<const geom::Point> points, const std::filesystem::path& dir,
    util::ThreadPool& pool, const MaterializeConfig& config) {
  std::vector<io::SegmentCounts> counts(plan.parts.size());
  // Each worker materializes one partition at a time and writes only its
  // own counts slot, so the fan-out is deterministic and at most
  // worker_count() segments are resident at once.
  pool.parallel_for(0, plan.parts.size(), [&](std::size_t pi) {
    const io::Segment seg =
        materialize_partition(plan, pi, grid, points, config);
    io::write_segment_file(io::segment_file_path(dir, pi), seg);
    counts[pi] = {seg.owned.size(), seg.shadow.size()};
  });
  MRSCAN_ASSERT_MSG(pool.dropped_exceptions() == 0,
                    "segment spool worker dropped an exception");
  return counts;
}

double segment_reread_seconds(const io::SegmentCounts& counts,
                              const sim::LustreParams& lustre) {
  MRSCAN_REQUIRE(lustre.per_client_bps > 0.0);
  // One record per point, matching the clustering leaves' read model.
  const std::uint64_t bytes = counts.total() * io::kBinaryRecordSize;
  return sim::lustre_read_seconds(lustre, bytes, 1, sim::kSequentialOp);
}

}  // namespace mrscan::partition
