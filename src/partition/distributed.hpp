// The distributed partitioner (§3.1.3).
//
// Runs on its own (flat) MRNet tree, separate from the clustering tree:
//   1. each partitioner leaf reads a contiguous slice of the input file and
//      histograms it into Eps x Eps cell counts — the only information the
//      algorithm needs about the data;
//   2. histograms reduce up the tree to the root;
//   3. the root serially runs the partitioning algorithm (§3.1.2) and
//      broadcasts the partition boundaries;
//   4. leaves write their contribution of every partition to the segmented
//      output file on Lustre — a pattern dominated by small random writes,
//      since each leaf holds a random slice and contributes a little data
//      to nearly every partition (the paper's §5.1.1 bottleneck).
//
// The histogram reduce and planning execute for real; file-system time is
// modeled with the Titan Lustre parameters so the phase cost is
// meaningful at paper scale. The write of step 4 is charged, not
// performed. A resident run copies no point in this phase: it hands the
// run the grid over the input, and each clustering leaf gathers its own
// partition from it on its pool worker (§3.1.3: a leaf reads only its own
// partition). Out of core, the phase spools every partition to a per-leaf
// file (DESIGN §15).
#pragma once

#include <filesystem>
#include <optional>
#include <span>

#include "geometry/point.hpp"
#include "io/mapped_segment.hpp"
#include "mrnet/network.hpp"
#include "obs/obs.hpp"
#include "partition/materialize.hpp"
#include "partition/partitioner.hpp"
#include "sim/titan.hpp"
#include "util/thread_pool.hpp"

namespace mrscan::partition {

/// How partitions reach the clustering leaves. kLustre is what the paper
/// evaluated (write to the parallel file system, leaves read back);
/// kDirect is its stated future work (§6): "send partitions over the
/// network" directly to the clustering processes, skipping the file system
/// and its small-random-write pathology.
enum class Transport { kLustre, kDirect };

struct DistributedPartitionerConfig {
  PartitionerConfig planner;
  MaterializeConfig materialize;
  /// Leaf processes of the partitioner tree ("# of partition nodes",
  /// Table 1).
  std::size_t partition_nodes = 2;
  double eps = 1.0;
  Transport transport = Transport::kLustre;
  /// Per-run observability recorder (non-owning, may be null). The phase
  /// records its sub-phase gauges ("partition.*"), the rebalance-move
  /// counter, and its tree's network stats ("net.partition.*") into the
  /// registry; with tracing enabled it also emits wall spans for the
  /// phase's layers (partition.histogram, .plan, .materialize and, out of
  /// core, .spill) and each node's histogram, plus network sim spans.
  /// Never alters the plan.
  obs::Recorder* recorder = nullptr;
  /// Out-of-core spool directory (DESIGN §15). When non-empty, segments
  /// are written as per-leaf files under this directory, and
  /// PartitionPhaseResult::grid stays empty. The timing model is
  /// unchanged — the paper's partitioner always wrote to the PFS; resident
  /// mode merely skips the local materialisation of that write.
  std::filesystem::path spool_dir;
};

struct PartitionPhaseResult {
  PartitionPlan plan;
  /// Resident mode only: the grid over the phase's input points, at the
  /// plan's geometry, that every partition is cut from. A leaf gathers
  /// its owned and shadow points from it and the input
  /// (gather_partition). Empty out of core and in model mode.
  std::optional<index::Grid> grid;
  /// Per-leaf record counts (owned, shadow), filled by both real modes:
  /// exactly what each leaf's gather or segment file holds, shadow
  /// representatives included, so downstream cost models never need the
  /// points resident.
  std::vector<io::SegmentCounts> segment_counts;

  /// Modeled phase time at scale and its breakdown (seconds).
  double sim_seconds = 0.0;
  double read_seconds = 0.0;
  double histogram_reduce_seconds = 0.0;
  double plan_seconds = 0.0;
  double broadcast_seconds = 0.0;
  /// Lustre transport: partition-file write time. Zero under kDirect.
  double write_seconds = 0.0;
  /// Direct transport: network send time of partition data. Zero under
  /// kLustre.
  double send_seconds = 0.0;

  mrnet::NetworkStats net_stats;
};

/// Run the partition phase over `points` (standing in for the input file):
/// the leaves histogram their slices of the points, and after the plan
/// the points are grouped by cell, and out of core spooled to the
/// segment files; the write is charged for every point of every
/// partition. The per-node histogram builds, the resident counts and the
/// out-of-core segment-file writes run on `pool`; the plan is
/// bit-identical for any worker count.
PartitionPhaseResult run_distributed_partitioner(
    std::span<const geom::Point> points,
    const DistributedPartitionerConfig& config,
    const sim::TitanParams& titan, util::ThreadPool& pool);

/// Model-mode variant for the paper-scale benches: the leaves hold
/// round-robin shares of `hist`, which stands for `virtual_point_count`
/// input points, and the write is charged for every point the plan
/// assigns, without materialising any. From the histogram reduce on, both
/// variants run the same code.
PartitionPhaseResult run_distributed_partitioner_model(
    const index::CellHistogram& hist, const geom::GridGeometry& geometry,
    std::uint64_t virtual_point_count,
    const DistributedPartitionerConfig& config,
    const sim::TitanParams& titan);

}  // namespace mrscan::partition
