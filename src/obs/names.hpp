#pragma once

/// The central metric name table (DESIGN §9).
///
/// Every metric name the pipeline emits is declared here, once. A name
/// literal at a Registry/MetricsSnapshot call site that is not in this
/// table is a contract violation flagged by mrscan_analyze's
/// metric-name-table rule: a typo'd name silently creates a brand-new
/// series that no reader (MrScanResult, bench CSVs, dashboards) ever
/// looks at, which is exactly the failure mode the table exists to
/// catch.
///
/// Two kinds of entry:
///   - exact names (`kSimTotal` -> "sim.total"): the full series name.
///   - prefixes (ending in '.', identifier ending in `Prefix`): dynamic
///     families like "wall.<phase>" and "net.<domain>.<stat>" where the
///     tail is data-dependent. A dynamic name must be built from a
///     declared prefix (or spelled via a `names::` constant, which
///     passes the analyzer by construction).
///
/// Adding a metric means adding a constant here in the same commit —
/// the analyzer turns forgetting into a test failure, not a silent
/// blind spot.

namespace mrscan::obs::names {

// ---- dynamic families (prefixes) ----------------------------------
inline constexpr const char* kWallPrefix = "wall.";
inline constexpr const char* kPoolWorkerPrefix = "pool.worker.";
inline constexpr const char* kNetPrefix = "net.";
inline constexpr const char* kBenchMicroIndexPrefix = "bench.micro_index.";
inline constexpr const char* kBenchServePrefix = "bench.serve.";
inline constexpr const char* kBenchOocPrefix = "bench.ooc.";

// ---- thread pool (obs::PoolMetrics) -------------------------------
inline constexpr const char* kPoolTasks = "pool.tasks";
inline constexpr const char* kPoolQueueDepth = "pool.queue_depth";

// ---- partition phase (partition::record_partition_stats) ----------
inline constexpr const char* kPartitionReadSeconds =
    "partition.read_seconds";
inline constexpr const char* kPartitionHistogramReduceSeconds =
    "partition.histogram_reduce_seconds";
inline constexpr const char* kPartitionPlanSeconds =
    "partition.plan_seconds";
inline constexpr const char* kPartitionBroadcastSeconds =
    "partition.broadcast_seconds";
inline constexpr const char* kPartitionWriteSeconds =
    "partition.write_seconds";
inline constexpr const char* kPartitionSendSeconds =
    "partition.send_seconds";
inline constexpr const char* kPartitionRebalanceMoves =
    "partition.rebalance_moves";
inline constexpr const char* kPartitionParts = "partition.parts";
inline constexpr const char* kPartitionPointsOwned =
    "partition.points_owned";
inline constexpr const char* kPartitionPointsWithShadow =
    "partition.points_with_shadow";

// ---- simulated phase seconds (core) -------------------------------
inline constexpr const char* kSimStartup = "sim.startup";
inline constexpr const char* kSimPartition = "sim.partition";
inline constexpr const char* kSimClusterMerge = "sim.cluster_merge";
inline constexpr const char* kSimSweep = "sim.sweep";
inline constexpr const char* kSimTotal = "sim.total";

// ---- fault accounting (core, fed from the merge tree) -------------
inline constexpr const char* kFaultLeavesRecovered =
    "fault.leaves_recovered";
inline constexpr const char* kFaultPacketsDropped =
    "fault.packets_dropped";
inline constexpr const char* kFaultRetries = "fault.retries";
inline constexpr const char* kFaultTimeouts = "fault.timeouts";
inline constexpr const char* kFaultRecoverySeconds =
    "fault.recovery_seconds";

// ---- merge phase (core) -------------------------------------------
inline constexpr const char* kMergeMergesDetected =
    "merge.merges_detected";

// ---- virtual GPU accounting (core, from gpu::DeviceStats) ---------
inline constexpr const char* kGpuDenseBoxes = "gpu.dense_boxes";
inline constexpr const char* kGpuDensePoints = "gpu.dense_points";
inline constexpr const char* kGpuChains = "gpu.chains";
inline constexpr const char* kGpuCollisions = "gpu.collisions";
inline constexpr const char* kGpuDistanceOps = "gpu.distance_ops";
inline constexpr const char* kGpuKernelLaunches = "gpu.kernel_launches";
inline constexpr const char* kGpuH2dTransfers = "gpu.h2d_transfers";
inline constexpr const char* kGpuD2hTransfers = "gpu.d2h_transfers";
inline constexpr const char* kGpuDeviceSecondsMax =
    "gpu.device_seconds_max";
// BVH backend only: nodes visited by the fused traversals (charged to the
// cost model on top of distance tests; zero on the KD-tree backend).
inline constexpr const char* kGpuBvhNodeSteps = "gpu.bvh.node_steps";

// ---- cell-graph cluster path (core, from gpu::GpuDbscanStats) -----
inline constexpr const char* kClusterCellgraphCells =
    "cluster.cellgraph.cells";
inline constexpr const char* kClusterCellgraphCoreCells =
    "cluster.cellgraph.core_cells";
inline constexpr const char* kClusterCellgraphWholesalePoints =
    "cluster.cellgraph.wholesale_points";
inline constexpr const char* kClusterCellgraphBcpPairs =
    "cluster.cellgraph.bcp_pairs";
inline constexpr const char* kClusterCellgraphBcpOps =
    "cluster.cellgraph.bcp_ops";

// ---- per-domain network stats ("net.<domain>.<suffix>") -----------
// Suffixes for mrnet::record_network_stats; full names are
// kNetPrefix + domain + "." + suffix.
inline constexpr const char* kNetSuffixPacketsUp = "packets_up";
inline constexpr const char* kNetSuffixPacketsDown = "packets_down";
inline constexpr const char* kNetSuffixBytesUp = "bytes_up";
inline constexpr const char* kNetSuffixBytesDown = "bytes_down";
inline constexpr const char* kNetSuffixAcks = "acks";
inline constexpr const char* kNetSuffixPacketsDropped = "packets_dropped";
inline constexpr const char* kNetSuffixRetries = "retries";
inline constexpr const char* kNetSuffixTimeouts = "timeouts";
inline constexpr const char* kNetSuffixReordersInjected =
    "reorders_injected";
inline constexpr const char* kNetSuffixDuplicatesDiscarded =
    "duplicates_discarded";
inline constexpr const char* kNetSuffixLeavesRecovered =
    "leaves_recovered";
inline constexpr const char* kNetSuffixMaxPacketBytes = "max_packet_bytes";
inline constexpr const char* kNetSuffixLastOpSeconds = "last_op_seconds";
inline constexpr const char* kNetSuffixTotalSeconds = "total_seconds";
inline constexpr const char* kNetSuffixRecoverySeconds =
    "recovery_seconds";

// ---- bench harness (bench/common, bench_micro_pipeline) -----------
inline constexpr const char* kBenchClusterPhaseS = "bench.cluster_phase_s";
inline constexpr const char* kBenchWriteLabeledTextS =
    "bench.write_labeled_text_s";
inline constexpr const char* kBenchHostThreads = "bench.host_threads";
inline constexpr const char* kBenchPoints = "bench.points";
inline constexpr const char* kBenchPaperPoints = "bench.paper_points";
inline constexpr const char* kBenchReplicaPoints = "bench.replica_points";
inline constexpr const char* kBenchLeaves = "bench.leaves";
inline constexpr const char* kBenchMinPts = "bench.min_pts";
inline constexpr const char* kBenchTotalS = "bench.total_s";
inline constexpr const char* kBenchStartupS = "bench.startup_s";
inline constexpr const char* kBenchPartitionS = "bench.partition_s";
inline constexpr const char* kBenchClusterMergeS = "bench.cluster_merge_s";
inline constexpr const char* kBenchSweepS = "bench.sweep_s";
inline constexpr const char* kBenchGpuDbscanS = "bench.gpu_dbscan_s";
// Cluster formulation of a bench run: 0 = two-pass, 1 = cell-graph.
inline constexpr const char* kBenchClusterAlgo = "bench.cluster_algo";
// Rows clamped by MRSCAN_BENCH_MAX_LEAVES in this bench process ("no
// silent caps": a capped export must be distinguishable from full scale).
inline constexpr const char* kBenchLeavesClamped = "bench.leaves_clamped";

// ---- out-of-core execution (core, DESIGN §15) ---------------------
inline constexpr const char* kOocWorkingSet = "ooc.working_set";
inline constexpr const char* kOocChunks = "ooc.chunks";
inline constexpr const char* kOocLeavesClustered = "ooc.leaves_clustered";
inline constexpr const char* kOocLeavesRestored = "ooc.leaves_restored";
inline constexpr const char* kOocCheckpointWrites = "ooc.checkpoint_writes";
inline constexpr const char* kOocCheckpointBytes = "ooc.checkpoint_bytes";
inline constexpr const char* kOocMappedBytes = "ooc.mapped_bytes";
inline constexpr const char* kOocOutputRecords = "ooc.output_records";

// ---- clustering service (serve::ClusterService, DESIGN §14) -------
inline constexpr const char* kServeEpochs = "serve.epochs";
inline constexpr const char* kServeInserts = "serve.mutations.inserts";
inline constexpr const char* kServeRemoves = "serve.mutations.removes";
inline constexpr const char* kServeRejected = "serve.mutations.rejected";
inline constexpr const char* kServePoints = "serve.points";
inline constexpr const char* kServeCells = "serve.cells";
inline constexpr const char* kServeClusters = "serve.clusters";
inline constexpr const char* kServeEpochDirtyCells =
    "serve.epoch.dirty_cells";
inline constexpr const char* kServeEpochReclusterPoints =
    "serve.epoch.recluster_points";
inline constexpr const char* kServeReclusterPoints =
    "serve.recluster_points";
inline constexpr const char* kServeDistanceOps = "serve.distance_ops";
inline constexpr const char* kServeEdgeTests = "serve.edge_tests";
inline constexpr const char* kServeEpochSeconds = "serve.epoch.seconds";
inline constexpr const char* kServeSimSeconds = "serve.sim_seconds";
inline constexpr const char* kServeQuerySeconds = "serve.query.seconds";
inline constexpr const char* kServeQueries = "serve.queries";
inline constexpr const char* kServeRetries = "serve.retries";
inline constexpr const char* kServeFaultAborts = "serve.fault.aborts";

}  // namespace mrscan::obs::names
