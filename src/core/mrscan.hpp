// Mr. Scan: the end-to-end pipeline (§3, Figure 1).
//
//   partition -> cluster -> merge -> sweep
//
// The partition phase runs on its own flat MRNet tree and produces one
// partition (owned + shadow points) per clustering leaf. A second tree —
// up to three levels, 256-way fanout — clusters each partition on its
// leaf's (virtual) GPGPU, merges cluster summaries level by level to the
// root, assigns global cluster ids, and sweeps the labelling back down so
// leaves can emit their owned points with final ids.
//
// Everything semantic executes for real (partitioning, GPGPU kernels,
// merging, labelling); hardware time (GPU, interconnect, Lustre, startup)
// is accounted by the Titan machine model, reported in
// MrScanResult::sim — that is the time the figures-reproduction benches
// plot. Wall-clock host time is kept in the run's recorder
// (MrScanResult::obs, the "wall.<phase>" gauges).
#pragma once

#include <filesystem>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "dbscan/labels.hpp"
#include "fault/plan.hpp"
#include "geometry/point.hpp"
#include "gpu/mrscan_gpu.hpp"
#include "mrnet/network.hpp"
#include "obs/obs.hpp"
#include "partition/distributed.hpp"
#include "sim/titan.hpp"
#include "sweep/sweep.hpp"

namespace mrscan::core {

/// Out-of-core execution (DESIGN §15): partitions spool to per-leaf
/// segment files, the cluster phase streams leaves through a bounded
/// working set of memory mappings, labels spill to disk, and the sweep
/// labels the leaves in windows of the same working set, appending each
/// window's records to the output file instead of collecting them
/// resident. Output is bit-identical to a resident run (same records,
/// counters, and simulated seconds); only peak memory changes.
struct OocOptions {
  bool enabled = false;
  /// Spool directory for segment files, label spills, the checkpoint
  /// manifest, and the streamed output. Required when enabled.
  std::filesystem::path dir;
  /// Leaves concurrently resident during the cluster phase, and leaves
  /// the sweep labels at once; peak residency is working_set ×
  /// points_per_leaf, not the full dataset.
  std::size_t working_set = 8;
  /// Restore finished leaves from dir's checkpoint manifest (written by
  /// a previous run over the same input and configuration) instead of
  /// re-clustering them.
  bool resume = false;
  /// Write a checkpoint manifest after every working-set chunk.
  bool checkpoint = true;
  /// Test/CI hook: throw OocAborted after this many leaves have been
  /// freshly clustered (0 = never) — simulates a mid-run kill directly
  /// after a checkpoint so the kill/resume cycle is exercisable
  /// in-process.
  std::size_t abort_after_leaves = 0;
};

/// Thrown by run() when OocOptions::abort_after_leaves triggers. The
/// checkpoint written just before the throw makes the run resumable.
class OocAborted : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct MrScanConfig {
  dbscan::DbscanParams params{0.1, 40};
  /// Clustering leaf processes (one partition and one GPGPU each).
  std::size_t leaves = 4;
  /// Tree fanout for intermediate processes (§5.1 uses 256).
  std::size_t fanout = 256;
  /// Partitioner tree leaves ("# of partition nodes", Table 1).
  std::size_t partition_nodes = 2;
  /// GPGPU DBSCAN settings (params and cluster_algo are overwritten from
  /// `params` / `cluster_algo`).
  gpu::MrScanGpuConfig gpu;
  /// Per-leaf cluster formulation (two-pass oracle or cell-graph,
  /// DESIGN §12). Both yield identical output.
  cluster::ClusterAlgo cluster_algo = cluster::ClusterAlgo::kTwoPass;
  /// Spatial index the per-leaf kernels traverse (KD-tree oracle or the
  /// fused-traversal BVH, DESIGN §13). Both yield identical output.
  index::Backend index_backend = index::Backend::kKdTree;
  /// Shadow representative-point optimisation threshold (0 = off).
  std::size_t shadow_rep_threshold = 0;
  /// Partition delivery: Lustre files (evaluated in the paper) or direct
  /// network streaming (the paper's stated future work, §6).
  partition::Transport transport = partition::Transport::kLustre;
  /// Shadow regions on/off (off = the incorrect naive partitioning, for
  /// the ablation only).
  bool shadow_regions = true;
  /// Grid refinement (§5.1.2 future work): partition on Eps/k cells so a
  /// single extremely dense Eps x Eps cell can split across leaves. 1 =
  /// the paper's configuration.
  std::size_t cell_refine = 1;
  /// Partitioner rebalancing.
  bool rebalance = true;
  double rebalance_threshold = 1.075;
  /// Keep noise points in the output records.
  bool keep_noise = false;
  /// Host worker threads for the embarrassingly parallel phase loops:
  /// per-leaf clustering, the partitioner's per-node histogram build, and
  /// per-child summary deserialization in the merge filter. 0 = hardware
  /// concurrency, 1 = fully sequential (the historical behavior). The
  /// output — records, cluster ids, and every simulated time — is
  /// bit-identical for any value (DESIGN §8's determinism contract): each
  /// leaf writes only its own slots and cross-leaf accumulators are
  /// reduced after the barrier.
  std::size_t host_threads = 1;
  /// Machine model for simulated times.
  sim::TitanParams titan;
  /// Seeded fault plan for the clustering tree's upstream reduction
  /// (empty = fault-free run). Any plan within the retry budget yields
  /// labels bit-identical to the fault-free run; leaf kills recover by
  /// re-reading the dead leaf's partition on a sibling. Kill ranks must be
  /// < the number of partitions actually produced (MrScanResult::
  /// leaves_used). Drop/slow/reorder faults address nodes of
  /// mrnet::Topology::balanced(leaves_used, fanout), or fault::kAllNodes.
  fault::FaultPlan fault_plan;
  /// Out-of-core execution (DESIGN §15). Off by default.
  OocOptions ooc;
  /// Span tracing into MrScanResult::obs's tracer. Off by default; the
  /// registry series are recorded either way, and tracing never changes
  /// them, the clustering output or any simulated time (DESIGN §9).
  bool trace = false;
};

/// Simulated per-phase seconds at machine scale.
struct PhaseBreakdown {
  double startup = 0.0;
  double partition = 0.0;
  /// Cluster + merge together (they pipeline: the merge reduction starts
  /// as each leaf finishes, so the paper reports them jointly, Fig. 9b).
  double cluster_merge = 0.0;
  double sweep = 0.0;

  double total() const {
    return startup + partition + cluster_merge + sweep;
  }
};

struct MrScanResult {
  /// Clustered output: owned points of every leaf with global cluster ids.
  /// Empty on an out-of-core run — the records stream to `output_path`
  /// instead (identical content and order).
  std::vector<sweep::LabeledPoint> output;
  /// Out-of-core runs: path of the streamed labeled binary output file
  /// (io::LabeledFileReader reads it back). Empty on resident runs.
  std::filesystem::path output_path;
  /// Output records written, both modes (== output.size() resident).
  std::uint64_t output_records = 0;
  /// Out-of-core resume: leaves restored from the checkpoint manifest.
  std::size_t ooc_leaves_restored = 0;
  std::size_t cluster_count = 0;
  std::size_t leaves_used = 0;

  PhaseBreakdown sim;

  /// Simulated in-GPU DBSCAN time: the slowest leaf's device time
  /// (Figure 9c plots exactly this).
  double gpu_dbscan_seconds = 0.0;

  std::vector<gpu::GpuDbscanStats> leaf_stats;
  /// The partition phase's plan, per-leaf counts and costs. Its grid
  /// stays inside run(), so the result holds no point data from the
  /// phase.
  partition::PartitionPhaseResult partition_phase;
  /// The merge tree's traffic and its fault handling (leaves_recovered,
  /// packets_dropped, retries, timeouts, recovery_seconds: all zero on a
  /// fault-free run).
  mrnet::NetworkStats merge_net;
  mrnet::NetworkStats sweep_net;

  /// Total merges detected across all tree nodes.
  std::size_t merges_detected = 0;

  /// The run's observability recorder: the metrics registry, which holds
  /// every series of the run (sim.*, wall.*, fault.*, net.*, ...), plus
  /// the span tracer (empty unless `trace` was set). Always set by run();
  /// shared so callers can snapshot, summarise, or export after the run
  /// returns.
  std::shared_ptr<obs::Recorder> obs;

  /// Labels aligned with an input order (convenience for quality checks).
  std::vector<dbscan::ClusterId> labels_for(
      std::span<const geom::Point> points) const {
    return sweep::labels_in_input_order(points, output);
  }
};

class MrScan {
 public:
  explicit MrScan(MrScanConfig config);

  const MrScanConfig& config() const { return config_; }

  /// Cluster `points` end to end. Throws std::invalid_argument when a
  /// coordinate is not finite or the points' cell indices, ring margin
  /// included, do not fit in int32 on a grid the run builds.
  MrScanResult run(std::span<const geom::Point> points) const;

 private:
  MrScanConfig config_;
};

}  // namespace mrscan::core
