// mrscan-lint: allow-file(require-validation) Audit functions check
// internal invariants of already-validated pipeline output; a violation
// is a programming error, so MRSCAN_AUDIT_ASSERT (abort) is the right
// failure mode, not MRSCAN_REQUIRE (throw).
#include "partition/audit.hpp"

#include <unordered_set>

#include "util/audit.hpp"

namespace mrscan::partition {

void audit_plan(const PartitionPlan& plan, const index::CellHistogram& hist,
                const PartitionerConfig& config,
                double rebalance_threshold_points) {
  MRSCAN_AUDIT_ASSERT_MSG(
      plan.shadow_rings == 2 * static_cast<std::int32_t>(config.cell_refine),
      "shadow radius must be 2*Eps (two rings per grid refinement factor)");

  // ---- Ownership: no part is empty; each non-empty cell owned exactly
  // once. ----
  std::unordered_set<std::uint64_t> owned_anywhere;
  for (const PartitionPart& part : plan.parts) {
    MRSCAN_AUDIT_ASSERT_MSG(!part.owned_cells.empty(), "empty partition");
    for (const std::uint64_t code : part.owned_cells) {
      MRSCAN_AUDIT_ASSERT_MSG(hist.count_of(geom::cell_from_code(code)) > 0,
                              "partition owns an empty cell");
      const bool fresh = owned_anywhere.insert(code).second;
      MRSCAN_AUDIT_ASSERT_MSG(fresh, "cell owned by two partitions");
    }
  }
  if (!plan.parts.empty()) {
    for (const auto& entry : hist.entries()) {
      MRSCAN_AUDIT_ASSERT_MSG(
          entry.count == 0 || owned_anywhere.contains(entry.code),
          "non-empty cell owned by no partition");
    }
    MRSCAN_AUDIT_ASSERT_MSG(
        plan.total_owned_points() == hist.total_points(),
        "owned point total does not cover the histogram");
  }

  // ---- Per-part shadows and counts. ----
  for (std::uint32_t pi = 0; pi < plan.parts.size(); ++pi) {
    const PartitionPart& part = plan.parts[pi];
    const std::unordered_set<std::uint64_t> owned(part.owned_cells.begin(),
                                                  part.owned_cells.end());
    const std::unordered_set<std::uint64_t> shadow(part.shadow_cells.begin(),
                                                   part.shadow_cells.end());
    MRSCAN_AUDIT_ASSERT_MSG(shadow.size() == part.shadow_cells.size(),
                            "duplicate shadow cells");

    std::uint64_t owned_points = 0;
    for (const std::uint64_t code : part.owned_cells) {
      owned_points += hist.count_of(geom::cell_from_code(code));
    }
    MRSCAN_AUDIT_ASSERT_MSG(owned_points == part.owned_points,
                            "owned point count disagrees with histogram");

    std::uint64_t shadow_points = 0;
    for (const std::uint64_t code : part.shadow_cells) {
      const std::uint64_t count = hist.count_of(geom::cell_from_code(code));
      shadow_points += count;
      MRSCAN_AUDIT_ASSERT_MSG(count > 0, "empty cell in shadow region");
      MRSCAN_AUDIT_ASSERT_MSG(!owned.contains(code),
                              "cell both owned and shadowed");
      // Minimality: a shadow cell must touch an owned cell.
      bool adjacent = false;
      geom::for_each_neighbor_within(
          geom::cell_from_code(code), plan.shadow_rings,
          [&](geom::CellKey nbr) {
            adjacent = adjacent || owned.contains(geom::cell_code(nbr));
          });
      MRSCAN_AUDIT_ASSERT_MSG(adjacent,
                              "shadow cell not adjacent to the partition");
    }
    MRSCAN_AUDIT_ASSERT_MSG(shadow_points == part.shadow_points,
                            "shadow point count disagrees with histogram");

    // Completeness (§3.1.1): every owned point's Eps-neighbourhood must be
    // present, i.e. every non-empty cell within shadow_rings of an owned
    // cell is owned or shadowed.
    if (config.shadow_regions) {
      for (const std::uint64_t code : part.owned_cells) {
        geom::for_each_neighbor_within(
            geom::cell_from_code(code), plan.shadow_rings,
            [&](geom::CellKey nbr) {
              const std::uint64_t ncode = geom::cell_code(nbr);
              if (hist.count_of(nbr) == 0) return;
              MRSCAN_AUDIT_ASSERT_MSG(
                  owned.contains(ncode) || shadow.contains(ncode),
                  "incomplete shadow region: a neighbouring non-empty "
                  "cell is neither owned nor shadowed");
            });
      }
    }
  }

  // ---- Rebalance bound (§3.1.2). After the backward pass, a partition
  // past the first may exceed the threshold only when trimming was
  // blocked: a single owned cell left, or the MinPts floor. ----
  if (rebalance_threshold_points > 0.0 && plan.parts.size() >= 2) {
    for (std::uint32_t pi = 1; pi < plan.parts.size(); ++pi) {
      const PartitionPart& part = plan.parts[pi];
      if (static_cast<double>(part.total_points()) <=
          rebalance_threshold_points) {
        continue;
      }
      const bool single_cell = part.owned_cells.size() <= 1;
      bool minpts_floor = false;
      if (!single_cell) {
        const std::uint64_t front =
            hist.count_of(geom::cell_from_code(part.owned_cells.front()));
        minpts_floor = static_cast<double>(part.owned_points - front) <
                       static_cast<double>(config.min_pts);
      }
      MRSCAN_AUDIT_ASSERT_MSG(
          single_cell || minpts_floor,
          "partition exceeds the rebalance threshold but could still "
          "shed its front cell");
    }
  }
}

}  // namespace mrscan::partition
