// Deep invariant audit of a partition plan (phase boundary: partition).
//
// Re-derives from the histogram what plan_partitions promises (§3.1):
//   * every partition owns at least one cell, every non-empty cell is
//     owned by exactly one partition, and owned cells are non-empty;
//   * shadow regions are complete — every non-empty cell within
//     shadow_rings of an owned cell is either owned by the same partition
//     or in its shadow set — and minimal (each shadow cell is non-empty,
//     unowned by the part, and adjacent to an owned cell);
//   * the recorded point counts match the histogram;
//   * after rebalancing, no partition past the first both exceeds the
//     trim threshold and could still legally shed its front cell
//     (the 1.075x bound of §3.1.2, Figure 2d).
//
// Aborts via MRSCAN_AUDIT_ASSERT on any violation. Compiled always,
// called from plan_partitions only when MRSCAN_CHECK_INVARIANTS is ON.
#pragma once

#include "index/cell_histogram.hpp"
#include "partition/partitioner.hpp"
#include "partition/plan.hpp"

namespace mrscan::partition {

/// `rebalance_threshold_points` is the exact trim threshold (in points)
/// the rebalancing pass used, or <= 0 when rebalancing did not run.
void audit_plan(const PartitionPlan& plan, const index::CellHistogram& hist,
                const PartitionerConfig& config,
                double rebalance_threshold_points);

}  // namespace mrscan::partition
