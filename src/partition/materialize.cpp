#include "partition/materialize.hpp"

#include "geometry/rep_points.hpp"
#include "io/point_file.hpp"
#include "util/assert.hpp"

namespace mrscan::partition {

namespace {

void require_part(const PartitionPlan& plan, std::size_t part_index,
                  const index::Grid& grid) {
  MRSCAN_REQUIRE_MSG(grid.geometry() == plan.geometry,
                     "grid geometry does not match the plan");
  MRSCAN_REQUIRE(part_index < plan.parts.size());
}

/// Ordinal of the cell with this code, or npos, tried first at `hint`.
/// With the grid's origin at the input's lower-left corner, as the
/// partition phase puts it, every key is non-negative and code order is
/// grid order: a part's owned cells are consecutive ordinals, and so are
/// the runs of its shadow cells in one column.
std::size_t find_cell(const index::Grid& grid, std::uint64_t code,
                      std::size_t hint) {
  const auto codes = grid.codes();
  if (hint < codes.size() && codes[hint] == code) return hint;
  return grid.find(code);
}

/// Calls `fn` once per non-empty shadow cell of part `part_index`, in
/// code order, with the cell's members, or with its representatives when
/// it holds more than config.shadow_rep_threshold points.
void for_each_shadow_cell(const PartitionPlan& plan, std::size_t part_index,
                          const index::Grid& grid,
                          std::span<const geom::Point> points,
                          const MaterializeConfig& config,
                          const CellPoints& fn) {
  require_part(plan, part_index, grid);
  std::size_t next = 0;
  for (const std::uint64_t code : plan.parts[part_index].shadow_cells) {
    const std::size_t ordinal = find_cell(grid, code, next);
    if (ordinal == index::Grid::npos) continue;
    next = ordinal + 1;
    const auto members = grid.members(ordinal);
    if (config.shadow_rep_threshold != 0 &&
        members.size() > config.shadow_rep_threshold) {
      // Dense shadow cell: ship representatives only. Quality of the
      // local DBSCAN is preserved (the cell still asserts density); the
      // merge step may occasionally miss a combine (§3.1.3).
      fn(geom::select_cell_representatives(
          plan.geometry, geom::cell_from_code(code), points, members));
    } else {
      fn(members);
    }
  }
}

/// A CellPoints that appends the cell's points to `out`.
CellPoints append_to(geom::PointSet& out, std::span<const geom::Point> points) {
  return [&out, points](std::span<const std::uint32_t> cell) {
    for (const std::uint32_t idx : cell) out.push_back(points[idx]);
  };
}

}  // namespace

void for_each_owned_cell(const PartitionPlan& plan, std::size_t part_index,
                         const index::Grid& grid, const CellPoints& fn) {
  require_part(plan, part_index, grid);
  std::size_t next = 0;
  for (const std::uint64_t code : plan.parts[part_index].owned_cells) {
    const std::size_t ordinal = find_cell(grid, code, next);
    if (ordinal == index::Grid::npos) continue;
    fn(grid.members(ordinal));
    next = ordinal + 1;
  }
}

void gather_partition(const PartitionPlan& plan, std::size_t part_index,
                      const index::Grid& grid,
                      std::span<const geom::Point> points,
                      const MaterializeConfig& config, geom::PointSet& out) {
  const CellPoints append = append_to(out, points);
  for_each_owned_cell(plan, part_index, grid, append);
  for_each_shadow_cell(plan, part_index, grid, points, config, append);
}

io::SegmentCounts count_partition(const PartitionPlan& plan,
                                  std::size_t part_index,
                                  const index::Grid& grid,
                                  std::span<const geom::Point> points,
                                  const MaterializeConfig& config) {
  io::SegmentCounts counts;
  for_each_owned_cell(plan, part_index, grid,
                      [&](std::span<const std::uint32_t> cell) {
                        counts.owned += cell.size();
                      });
  for_each_shadow_cell(plan, part_index, grid, points, config,
                       [&](std::span<const std::uint32_t> cell) {
                         counts.shadow += cell.size();
                       });
  return counts;
}

io::Segment materialize_partition(const PartitionPlan& plan,
                                  std::size_t part_index,
                                  const index::Grid& grid,
                                  std::span<const geom::Point> points,
                                  const MaterializeConfig& config) {
  require_part(plan, part_index, grid);
  io::Segment seg;
  seg.owned.reserve(plan.parts[part_index].owned_points);
  for_each_owned_cell(plan, part_index, grid, append_to(seg.owned, points));
  for_each_shadow_cell(plan, part_index, grid, points, config,
                       append_to(seg.shadow, points));
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
