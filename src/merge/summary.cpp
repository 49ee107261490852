#include "merge/summary.hpp"

#include <algorithm>

#include "geometry/rep_points.hpp"
#include "index/grid.hpp"
#include "util/assert.hpp"

namespace mrscan::merge {

mrnet::Packet MergeSummary::to_packet() const {
  mrnet::Packet p;
  p.put_u64(clusters.size());
  for (const ClusterSummary& cluster : clusters) {
    p.put_u64(cluster.owned_points);
    p.put_u64(cluster.cells.size());
    for (const CellSummary& cell : cluster.cells) {
      p.put_u64(cell.cell_code);
      p.put_u8(cell.from_shadow ? 1 : 0);
      p.put_pod_vector(cell.reps);
      p.put_pod_vector(cell.noncore);
    }
  }
  return p;
}

MergeSummary MergeSummary::from_packet(const mrnet::Packet& packet) {
  MergeSummary summary;
  auto r = packet.reader();
  const std::uint64_t n_clusters = r.get_u64();
  summary.clusters.resize(n_clusters);
  for (ClusterSummary& cluster : summary.clusters) {
    cluster.owned_points = r.get_u64();
    const std::uint64_t n_cells = r.get_u64();
    cluster.cells.resize(n_cells);
    for (CellSummary& cell : cluster.cells) {
      cell.cell_code = r.get_u64();
      cell.from_shadow = r.get_u8() != 0;
      cell.reps = r.get_pod_vector<SummaryPoint>();
      cell.noncore = r.get_pod_vector<SummaryPoint>();
    }
  }
  return summary;
}

MergeSummary build_leaf_summary(const LeafSummaryInput& input) {
  MRSCAN_REQUIRE(input.labels != nullptr);
  MRSCAN_REQUIRE(input.labels->size() == input.points.size());
  MRSCAN_REQUIRE(input.owned_count <= input.points.size());

  const auto& labels = *input.labels;
  auto is_owned_cell = [&](std::uint64_t code) {
    return std::binary_search(input.owned_cells.begin(),
                              input.owned_cells.end(), code);
  };
  auto is_shadow_cell = [&](std::uint64_t code) {
    return std::binary_search(input.shadow_cells.begin(),
                              input.shadow_cells.end(), code);
  };
  // Owned cells adjacent to a shadow cell are boundary cells too: the only
  // owned cells another leaf can also see.
  auto is_owned_boundary_cell = [&](std::uint64_t code) {
    if (!is_owned_cell(code)) return false;
    bool boundary = false;
    geom::for_each_neighbor_within(
        geom::cell_from_code(code), input.shadow_rings,
        [&](geom::CellKey nbr) {
          if (is_shadow_cell(geom::cell_code(nbr))) boundary = true;
        });
    return boundary;
  };

  MergeSummary summary;
  for (std::uint32_t i = 0; i < input.points.size(); ++i) {
    const dbscan::ClusterId c = labels.cluster[i];
    if (c < 0) continue;
    const auto ci = static_cast<std::size_t>(c);
    if (ci >= summary.clusters.size()) summary.clusters.resize(ci + 1);
    if (i < input.owned_count) ++summary.clusters[ci].owned_points;
  }

  // One walk over the leaf's cells in ascending code, with the boundary
  // test run once per cell. Each cell's clustered points are grouped by
  // cluster in ascending point order, and appending to each cluster as
  // the walk goes keeps its cells in ascending code.
  const auto point_of = [&](std::uint32_t idx) {
    const geom::Point& p = input.points[idx];
    return SummaryPoint{p.id, p.x, p.y};
  };
  const index::Grid grid(input.geometry, input.points);
  std::vector<std::uint32_t> clustered;
  std::vector<std::uint32_t> core;
  for (std::size_t ordinal = 0; ordinal < grid.cell_count(); ++ordinal) {
    const std::uint64_t code = grid.codes()[ordinal];
    const bool from_shadow = is_shadow_cell(code);
    if (!from_shadow && !is_owned_boundary_cell(code)) continue;
    clustered.clear();
    for (const std::uint32_t idx : grid.members(ordinal)) {
      if (labels.cluster[idx] >= 0) clustered.push_back(idx);
    }
    std::sort(clustered.begin(), clustered.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                if (labels.cluster[a] != labels.cluster[b]) {
                  return labels.cluster[a] < labels.cluster[b];
                }
                return a < b;
              });
    for (std::size_t run = 0; run < clustered.size();) {
      const dbscan::ClusterId c = labels.cluster[clustered[run]];
      CellSummary cell;
      cell.cell_code = code;
      cell.from_shadow = from_shadow;
      core.clear();
      for (; run < clustered.size() && labels.cluster[clustered[run]] == c;
           ++run) {
        const std::uint32_t idx = clustered[run];
        if (labels.core[idx]) {
          core.push_back(idx);
        } else {
          cell.noncore.push_back(point_of(idx));
        }
      }
      for (const std::uint32_t idx : geom::select_cell_representatives(
               input.geometry, geom::cell_from_code(code), input.points,
               core)) {
        cell.reps.push_back(point_of(idx));
      }
      summary.clusters[static_cast<std::size_t>(c)].cells.push_back(
          std::move(cell));
    }
  }
  return summary;
}

}  // namespace mrscan::merge
