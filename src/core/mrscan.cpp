#include "core/mrscan.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <system_error>
#include <unordered_map>
#include <utility>

#include "cluster/cell_graph_ops.hpp"
#include "fault/checkpoint.hpp"
#include "fault/injector.hpp"
#include "geometry/bbox.hpp"
#include "index/grid.hpp"
#include "io/checked_file.hpp"
#include "io/labeled_file.hpp"
#include "io/mapped_segment.hpp"
#include "io/point_file.hpp"
#include "merge/merger.hpp"
#include "merge/summary.hpp"
#include "mrnet/topology.hpp"
#include "obs/names.hpp"
#include "obs/obs.hpp"
#include "partition/materialize.hpp"
#include "util/assert.hpp"
#include "util/bytes.hpp"
#include "util/thread_pool.hpp"

namespace mrscan::core {

namespace {

/// Map packet: a vector of global cluster ids indexed by local cluster id.
mrnet::Packet pack_id_map(const std::vector<std::int64_t>& ids) {
  mrnet::Packet p;
  p.put_pod_vector(ids);
  return p;
}

std::vector<std::int64_t> unpack_id_map(const mrnet::Packet& packet) {
  return packet.reader().get_pod_vector<std::int64_t>();
}

// ---- the leaf store (DESIGN §15) --------------------------------------

/// Where each leaf's points and owned labels live between its cluster
/// step and the sweep, and where the sweep's records go. A resident run
/// cuts each leaf from the partition phase's grid and the input when it
/// needs the leaf's points, keeps its owned cluster ids in memory, and
/// labels every leaf on the pool into MrScanResult::output once the sweep
/// has delivered them all. An out-of-core run maps the leaf's MRSG file
/// from the spool directory, spills the ids beside it, and streams the
/// records to an MRLB file as each leaf is delivered. Nothing outside
/// this class knows which. Every per-leaf operation touches only that
/// leaf's slot and files, so leaves may run concurrently (DESIGN §8).
class LeafStore {
 public:
  /// On a resident run `grid` is the partition phase's grid over
  /// `points`; out of core it is null, and the leaves live in `spool`.
  LeafStore(const partition::PartitionPhaseResult& phase,
            const index::Grid* grid, std::span<const geom::Point> points,
            std::filesystem::path spool, const MrScanConfig& config,
            obs::Recorder& recorder)
      : plan_(phase.plan),
        counts_(phase.segment_counts),
        grid_(grid),
        points_(points),
        materialize_{config.shadow_rep_threshold},
        spool_(std::move(spool)),
        keep_noise_(config.keep_noise),
        recorder_(recorder),
        kept_(resident() ? counts_.size() : 0),
        records_(resident() ? counts_.size() : 0),
        spill_digests_(resident() ? 0 : counts_.size()) {}
  LeafStore(const LeafStore&) = delete;
  LeafStore& operator=(const LeafStore&) = delete;

  /// The leaf's owned points, then its shadow points: gathered from the
  /// grid and the input, or the segment file mapped and decoded.
  geom::PointSet load(std::size_t leaf) const {
    if (resident()) {
      geom::PointSet pts;
      pts.reserve(counts_[leaf].total());
      partition::gather_partition(plan_, leaf, *grid_, points_, materialize_,
                                  pts);
      return pts;
    }
    const obs::LayerSpan span(&recorder_, "io.map");
    const io::MappedSegment seg(io::segment_file_path(spool_, leaf));
    recorder_.metrics().add("ooc.mapped_bytes", seg.mapped_bytes());
    return seg.decode_all();
  }

  /// Keep the owned points' cluster ids for the sweep; shadow labels are
  /// read only by the leaf summary. Resident, also count the records the
  /// leaf will yield. The spill is a plain write whose digest the leaf's
  /// checkpoint entry records: a crash may leave the file torn or zeroed,
  /// and spill_intact() then refuses to trust it.
  void keep(std::size_t leaf, const dbscan::Labeling& labels) {
    const auto owned = static_cast<std::ptrdiff_t>(counts_[leaf].owned);
    if (resident()) {
      std::vector<dbscan::ClusterId>& ids = kept_[leaf].cluster;
      ids.assign(labels.cluster.begin(), labels.cluster.begin() + owned);
      records_[leaf] = sweep::owned_record_count(ids, keep_noise_);
      return;
    }
    const obs::LayerSpan span(&recorder_, "io.spill_labels");
    std::vector<std::uint8_t> buf(kept_bytes(leaf));
    if (owned > 0) std::memcpy(buf.data(), labels.cluster.data(), buf.size());
    io::write_file(labels_path(leaf), buf);
    spill_digests_[leaf] = util::fnv1a(buf);
  }

  /// Take the global ids the sweep delivered to the leaf. Out of core,
  /// its records stream to the output file now; a resident run keeps the
  /// ids, in delivery order, for finish().
  void deliver(std::size_t leaf, std::vector<std::int64_t> global_of_local) {
    if (resident()) {
      delivered_.push_back({leaf, std::move(global_of_local)});
      return;
    }
    // Re-map just this leaf's owned points and its label spill; both are
    // dropped again on return.
    geom::PointSet owned;
    dbscan::Labeling labels;
    {
      const obs::LayerSpan span(&recorder_, "io.map");
      const io::MappedSegment seg(io::segment_file_path(spool_, leaf));
      recorder_.metrics().add("ooc.mapped_bytes", seg.mapped_bytes());
      owned = seg.decode_owned();
      labels.cluster = read_spill(leaf, owned.size());
    }
    std::vector<sweep::LabeledPoint> records;
    {
      const obs::LayerSpan span(&recorder_, "sweep.label");
      records = sweep::label_owned_points(owned, labels, global_of_local,
                                          keep_noise_);
    }
    const obs::LayerSpan span(&recorder_, "io.append");
    io::LabeledFileWriter& out = writer();
    for (const sweep::LabeledPoint& record : records) {
      out.append(record.point, record.cluster);
    }
  }

  /// Close the output and record it in `result`: the records themselves,
  /// or the streamed file's path. A resident run labels its delivered
  /// leaves here, on `pool`: each gathers its owned points again and
  /// writes its records into its own span of the output, which starts at
  /// the record count of the leaves delivered before it, so the output
  /// keeps delivery order.
  void finish(MrScanResult& result, util::ThreadPool& pool) {
    if (resident()) {
      std::vector<std::size_t> offsets{0};
      for (const Delivery& d : delivered_) {
        offsets.push_back(offsets.back() + records_[d.leaf]);
      }
      std::vector<sweep::LabeledPoint> output(offsets.back());
      const std::span<sweep::LabeledPoint> all(output);
      pool.parallel_for(0, delivered_.size(), [&](std::size_t d) {
        label(delivered_[d],
              all.subspan(offsets[d], offsets[d + 1] - offsets[d]));
      });
      MRSCAN_ASSERT_MSG(pool.dropped_exceptions() == 0,
                        "sweep swallowed a worker exception");
      result.output = std::move(output);
      result.output_records = result.output.size();
      return;
    }
    const obs::LayerSpan span(&recorder_, "io.append");
    io::LabeledFileWriter& out = writer();
    out.close();
    result.output_path = output_path();
    result.output_records = out.records();
    recorder_.metrics().add("ooc.output_records", result.output_records);
  }

  /// Size of a leaf's label spill, as a checkpoint entry records it.
  std::uint64_t kept_bytes(std::size_t leaf) const {
    return counts_[leaf].owned * sizeof(dbscan::ClusterId);
  }

  /// util::fnv1a of the label spill keep() wrote, as a checkpoint entry
  /// records it.
  std::uint64_t kept_digest(std::size_t leaf) const {
    return spill_digests_[leaf];
  }

  /// Resume: true when the leaf's label spill survived with the size and
  /// digest its checkpoint entry recorded. A leaf whose spill is missing,
  /// short, zeroed or otherwise changed is clustered again.
  bool spill_intact(std::size_t leaf, std::uint64_t recorded_bytes,
                    std::uint64_t recorded_digest) const {
    const std::filesystem::path path = labels_path(leaf);
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(path, ec);
    return !ec && size == recorded_bytes &&
           recorded_bytes == kept_bytes(leaf) &&
           util::fnv1a(io::read_file_bytes(path)) == recorded_digest;
  }

 private:
  /// A leaf the sweep delivered, with its global ids.
  struct Delivery {
    std::size_t leaf;
    std::vector<std::int64_t> global_of_local;
  };

  bool resident() const { return grid_ != nullptr; }

  /// Resident: label one delivered leaf's owned points into `out`.
  void label(const Delivery& delivery,
             std::span<sweep::LabeledPoint> out) const {
    const obs::LayerSpan span(&recorder_, "sweep.label");
    geom::PointSet owned;
    owned.reserve(counts_[delivery.leaf].owned);
    partition::for_each_owned_cell(
        plan_, delivery.leaf, *grid_, [&](std::span<const std::uint32_t> cell) {
          for (const std::uint32_t idx : cell) owned.push_back(points_[idx]);
        });
    sweep::label_owned_points(owned, kept_[delivery.leaf],
                              delivery.global_of_local, keep_noise_, out);
  }

  std::filesystem::path labels_path(std::size_t leaf) const {
    return spool_ / ("labels_" + std::to_string(leaf) + ".lbl");
  }

  std::filesystem::path output_path() const {
    return spool_ / "output.labeled";
  }

  /// The output file opens at the first record, so a run aborted in the
  /// cluster phase leaves none behind.
  io::LabeledFileWriter& writer() {
    if (!writer_) writer_.emplace(output_path());
    return *writer_;
  }

  std::vector<dbscan::ClusterId> read_spill(std::size_t leaf,
                                            std::size_t owned_count) const {
    const std::filesystem::path path = labels_path(leaf);
    const std::vector<std::uint8_t> bytes = io::read_file_bytes(path);
    std::vector<dbscan::ClusterId> ids(owned_count);
    if (bytes.size() != ids.size() * sizeof(dbscan::ClusterId)) {
      io::format_fail(path,
                      "label spill size does not match the leaf's owned count");
    }
    if (!ids.empty()) std::memcpy(ids.data(), bytes.data(), bytes.size());
    return ids;
  }

  const partition::PartitionPlan& plan_;
  std::span<const io::SegmentCounts> counts_;
  const index::Grid* grid_;
  std::span<const geom::Point> points_;
  partition::MaterializeConfig materialize_;
  std::filesystem::path spool_;
  bool keep_noise_;
  obs::Recorder& recorder_;
  /// Resident: each leaf's owned cluster ids (`core` stays empty).
  std::vector<dbscan::Labeling> kept_;
  /// Resident: the records each leaf yields.
  std::vector<std::size_t> records_;
  /// Resident: the leaves in sweep delivery order.
  std::vector<Delivery> delivered_;
  /// Out of core: util::fnv1a of each leaf's label spill.
  std::vector<std::uint64_t> spill_digests_;
  /// Out of core: the streamed MRLB output.
  std::optional<io::LabeledFileWriter> writer_;
};

namespace names = obs::names;
using Stats = gpu::GpuDbscanStats;

/// One GpuDbscanStats member and the series that mirrors it. Exactly one
/// of `count` (summed over leaves) and `seconds` (max over leaves) is set.
struct GpuStatsField {
  const char* metric;
  std::uint64_t Stats::*count;
  double Stats::*seconds;
};

/// GpuDbscanStats' field list, written once. The row order is the layout
/// of the MRCK checkpoint's stats blob, one eight-byte field per row, so
/// rows must not be reordered.
constexpr GpuStatsField kGpuStatsFields[] = {
    {names::kGpuDenseBoxes, &Stats::dense_boxes, nullptr},
    {names::kGpuDensePoints, &Stats::dense_points, nullptr},
    {names::kGpuChains, &Stats::chains, nullptr},
    {names::kGpuCollisions, &Stats::collisions, nullptr},
    {names::kGpuDistanceOps, &Stats::distance_ops, nullptr},
    {names::kGpuKernelLaunches, &Stats::kernel_launches, nullptr},
    {names::kGpuH2dTransfers, &Stats::h2d_transfers, nullptr},
    {names::kGpuD2hTransfers, &Stats::d2h_transfers, nullptr},
    {names::kGpuDeviceSecondsMax, nullptr, &Stats::device_seconds},
    {names::kClusterCellgraphCells, &Stats::cellgraph_cells, nullptr},
    {names::kClusterCellgraphCoreCells, &Stats::cellgraph_core_cells, nullptr},
    {names::kClusterCellgraphWholesalePoints,
     &Stats::cellgraph_wholesale_points, nullptr},
    {names::kClusterCellgraphBcpPairs, &Stats::cellgraph_bcp_pairs, nullptr},
    {names::kClusterCellgraphBcpOps, &Stats::cellgraph_bcp_ops, nullptr},
    {names::kGpuBvhNodeSteps, &Stats::bvh_node_steps, nullptr},
};

/// GPU stats round-trip for checkpoint entries, so metric reductions on
/// a resumed run are identical to the uninterrupted one. fault sits
/// below mrnet in the module DAG, so the blob is opaque to checkpoint.cpp
/// and encoded/decoded here.
std::vector<std::uint8_t> encode_gpu_stats(const Stats& s) {
  mrnet::Packet p;
  for (const GpuStatsField& f : kGpuStatsFields) {
    if (f.count != nullptr) {
      p.put_u64(s.*f.count);
    } else {
      p.put_f64(s.*f.seconds);
    }
  }
  const auto bytes = p.bytes();
  return {bytes.begin(), bytes.end()};
}

Stats decode_gpu_stats(std::vector<std::uint8_t> blob) {
  const mrnet::Packet p(std::move(blob));
  auto r = p.reader();
  Stats s;
  for (const GpuStatsField& f : kGpuStatsFields) {
    if (f.count != nullptr) {
      s.*f.count = r.get_u64();
    } else {
      s.*f.seconds = r.get_f64();
    }
  }
  return s;
}

/// FNV-1a, one 64-bit word at a time, over everything a restored
/// checkpoint entry depends on: every input point, the plan's settings,
/// the leaf kernels' settings, and the machine-model terms a leaf's
/// stats and ready time are charged from. A checkpoint must match it
/// before any of its entries may be restored. host_threads and the
/// working-set size are deliberately excluded — the determinism contract
/// (DESIGN §8) makes output independent of both, so a resume may change
/// them.
std::uint64_t ooc_fingerprint(const MrScanConfig& config,
                              const gpu::MrScanGpuConfig& gpu,
                              std::span<const geom::Point> points) {
  std::uint64_t hash = 14695981039346656037ULL;
  const auto mix = [&hash](std::uint64_t word) {
    hash ^= word;
    hash *= 1099511628211ULL;
  };
  const auto mix_f64 = [&mix](double v) {
    mix(std::bit_cast<std::uint64_t>(v));
  };
  const sim::LustreParams& lustre = config.titan.lustre;
  const gpu::DeviceSpec& spec = config.titan.gpu_spec;
  const std::uint64_t words[] = {
      points.size(), config.leaves, config.fanout, config.partition_nodes,
      config.params.min_pts, static_cast<std::uint64_t>(config.cluster_algo),
      static_cast<std::uint64_t>(gpu.index_backend),
      config.shadow_rep_threshold,
      static_cast<std::uint64_t>(config.transport), config.shadow_regions,
      config.cell_refine, config.rebalance, config.keep_noise,
      gpu.block_count, gpu.points_per_block, gpu.max_leaf_points,
      gpu.dense_box, lustre.writer_cap, spec.sm_count, spec.global_mem_bytes};
  for (const std::uint64_t w : words) mix(w);
  for (const double v :
       {config.params.eps, config.rebalance_threshold,
        lustre.aggregate_read_bps, lustre.aggregate_write_bps,
        lustre.per_client_bps, lustre.per_op_latency_s,
        spec.kernel_launch_overhead_s, spec.pcie_bandwidth_bps,
        spec.pcie_latency_s, spec.block_op_rate, config.titan.cpu_op_rate}) {
    mix_f64(v);
  }
  for (const geom::Point& p : points) {
    mix(p.id);
    mix_f64(p.x);
    mix_f64(p.y);
    mix(std::bit_cast<std::uint32_t>(p.weight));
  }
  return hash;
}

/// The input-domain contract every batch run checks before its partition
/// phase: finite coordinates, and cell indices, ring margin included, that
/// fit in int32 on every grid the run builds. The grids cast coordinates
/// to cell indices unchecked (geom::GridGeometry::cell_of), and an index
/// outside int32 would silently change the answer. Each cast is monotone
/// in the coordinate, so the corners of the input's bounding box bound
/// every point's cell.
void require_cell_domain(std::span<const geom::Point> points,
                         const MrScanConfig& config) {
  geom::BBox box;
  for (const geom::Point& p : points) {
    MRSCAN_REQUIRE_MSG(std::isfinite(p.x) && std::isfinite(p.y),
                       "point " + std::to_string(p.id) +
                           " has a non-finite coordinate");
    box.expand(p);
  }
  if (box.empty()) return;
  const double eps = config.params.eps;
  const struct {
    const char* name;
    bool built;
    geom::GridGeometry geometry;
    std::int32_t rings;
  } grids[] = {
      {"partition", true,
       {box.min_x, box.min_y, eps / static_cast<double>(config.cell_refine)},
       static_cast<std::int32_t>(2 * config.cell_refine)},
      {"cell-graph", config.cluster_algo == cluster::ClusterAlgo::kCellGraph,
       {0.0, 0.0, cluster::cell_graph_side(eps)},
       cluster::kCellGraphRings},
      {"dense-box",
       config.cluster_algo == cluster::ClusterAlgo::kTwoPass &&
           config.gpu.dense_box,
       {0.0, 0.0, 2.0 * eps},
       1},
  };
  const geom::Point lo{0, box.min_x, box.min_y};
  const geom::Point hi{0, box.max_x, box.max_y};
  for (const auto& grid : grids) {
    if (!grid.built) continue;
    MRSCAN_REQUIRE_MSG(grid.geometry.checked_cell_of(lo, grid.rings) &&
                           grid.geometry.checked_cell_of(hi, grid.rings),
                       std::string("the input's extent overflows the ") +
                           grid.name + " grid's int32 cell indices");
  }
}

}  // namespace

MrScan::MrScan(MrScanConfig config) : config_(std::move(config)) {
  MRSCAN_REQUIRE(config_.params.eps > 0.0);
  MRSCAN_REQUIRE(config_.params.min_pts >= 1);
  MRSCAN_REQUIRE(config_.leaves >= 1);
  MRSCAN_REQUIRE(config_.fanout >= 2);
  MRSCAN_REQUIRE(config_.partition_nodes >= 1);
}

MrScanResult MrScan::run(std::span<const geom::Point> points) const {
  require_cell_domain(points, config_);
  MrScanResult result;

  // One recorder per run: its registry is where the run's statistics are
  // kept, and callers read and export them from MrScanResult::obs. The
  // span tracer inside it only records when the run is traced (DESIGN
  // §9's cost contract).
  auto recorder = std::make_shared<obs::Recorder>(config_.trace);
  result.obs = recorder;
  obs::Registry& reg = recorder->metrics();
  obs::Tracer& tracer = recorder->tracer();
  const bool tracing = recorder->tracing();

  // Record the final sim/fault numbers. Runs on every exit path (incl.
  // empty input).
  const auto finalize = [&]() {
    reg.set("sim.startup", result.sim.startup);
    reg.set("sim.partition", result.sim.partition);
    reg.set("sim.cluster_merge", result.sim.cluster_merge);
    reg.set("sim.sweep", result.sim.sweep);
    reg.set("sim.total", result.sim.total());
    // Fault counters are recorded unconditionally (an add of 0 still
    // creates the counter) so every snapshot carries them.
    reg.add("fault.leaves_recovered", result.merge_net.leaves_recovered);
    reg.add("fault.packets_dropped", result.merge_net.packets_dropped);
    reg.add("fault.retries", result.merge_net.retries);
    reg.add("fault.timeouts", result.merge_net.timeouts);
    reg.set("fault.recovery_seconds", result.merge_net.recovery_seconds);
  };

  // One host pool per run: the partitioner's per-node histograms and
  // segment-file writes, the per-leaf cluster loop and the merge
  // filter's per-child decode all fan out on it.
  util::ThreadPool pool(config_.host_threads);

  // ---- Partition phase (its own flat tree, §3.1.3). ----
  // Out of core, the partition phase spools every leaf's segment to a
  // file in the spool directory instead of keeping it resident.
  const bool ooc = config_.ooc.enabled;
  const std::filesystem::path spool =
      ooc ? config_.ooc.dir : std::filesystem::path();
  if (ooc) {
    MRSCAN_REQUIRE_MSG(!spool.empty(),
                       "out-of-core execution needs OocOptions::dir");
    std::filesystem::create_directories(spool);
  }

  partition::DistributedPartitionerConfig part_config;
  part_config.eps = config_.params.eps;
  part_config.partition_nodes = config_.partition_nodes;
  part_config.planner = partition::PartitionerConfig{
      config_.leaves,          config_.params.min_pts,
      config_.rebalance,       config_.rebalance_threshold,
      config_.shadow_regions,  config_.cell_refine};
  part_config.materialize.shadow_rep_threshold =
      config_.shadow_rep_threshold;
  part_config.transport = config_.transport;
  part_config.recorder = recorder.get();
  part_config.spool_dir = spool;

  // A resident run's leaves are cut from the phase's grid. It lives only
  // here, so MrScanResult keeps no point data from the partition phase.
  std::optional<index::Grid> grid;
  {
    obs::PhaseScope scope(*recorder, "partition");
    result.partition_phase = partition::run_distributed_partitioner(
        points, part_config, config_.titan, pool);
    grid = std::exchange(result.partition_phase.grid, std::nullopt);
  }
  result.sim.partition = result.partition_phase.sim_seconds;

  // Everything downstream that needs sizes reads the counts, which both
  // modes report, so both drive the identical cost model.
  const auto& seg_counts = result.partition_phase.segment_counts;
  const auto& plan = result.partition_phase.plan;
  const std::size_t leaf_count = seg_counts.size();
  result.leaves_used = leaf_count;
  if (leaf_count == 0) {
    finalize();
    return result;  // empty input
  }

  // ---- Startup of the clustering tree (ALPS + connections). ----
  const mrnet::Topology topology =
      mrnet::Topology::balanced(leaf_count, config_.fanout);
  result.sim.startup = sim::alps_startup_seconds(
      config_.titan.alps, topology.node_count() + config_.partition_nodes);

  // ---- Cluster phase: GPGPU DBSCAN per leaf (§3.2). ----
  gpu::MrScanGpuConfig gpu_config = config_.gpu;
  gpu_config.params = config_.params;
  gpu_config.cluster_algo = config_.cluster_algo;
  gpu_config.index_backend = config_.index_backend;

  std::optional<fault::FaultInjector> injector;
  if (!config_.fault_plan.empty()) {
    injector.emplace(config_.fault_plan);
    for (const auto& kill : config_.fault_plan.kill_leaves) {
      MRSCAN_REQUIRE_MSG(kill.leaf_rank < leaf_count,
                         "FaultPlan kills a leaf rank beyond the partitions "
                         "actually produced");
    }
  }

  LeafStore store(result.partition_phase, grid ? &*grid : nullptr, points,
                  spool, config_, *recorder);
  std::vector<mrnet::Packet> leaf_packets(leaf_count);
  std::vector<double> leaf_ready(leaf_count, 0.0);
  // Per leaf: 0 until it has a summary, then whether this run clustered
  // it or restored it from a checkpoint.
  constexpr std::uint8_t kClustered = 1;
  constexpr std::uint8_t kRestored = 2;
  std::vector<std::uint8_t> leaf_done(leaf_count, 0);
  result.leaf_stats.resize(leaf_count);

  // One leaf's lifecycle up to the merge: load its partition (owned
  // points first, shadow after), cluster it, build its summary and keep
  // its owned labels. Fills the leaf's stats slot and returns the summary
  // packet plus the host + device compute seconds (the partition read is
  // charged by the caller). Fully deterministic, so the recovery
  // handler's re-run produces the exact packet the leaf would have sent.
  const auto cluster_leaf =
      [&](std::size_t leaf) -> std::pair<mrnet::Packet, double> {
    const geom::PointSet pts = store.load(leaf);
    gpu::GpuDbscanResult clustered;
    {
      const obs::LayerSpan span(recorder.get(), "gpu.dbscan");
      gpu::VirtualDevice device(config_.titan.gpu_spec);
      clustered = gpu::mrscan_gpu_dbscan(pts, gpu_config, device);
    }
    result.leaf_stats[leaf] = clustered.stats;

    // Host-side KD-tree build cost (the tree ships to the device).
    const double host_build =
        pts.empty() ? 0.0
                    : static_cast<double>(pts.size()) *
                          std::log2(static_cast<double>(pts.size()) + 1) /
                          config_.titan.cpu_op_rate;

    mrnet::Packet summary;
    {
      const obs::LayerSpan span(recorder.get(), "merge.summary");
      merge::LeafSummaryInput input;
      input.points = pts;
      input.owned_count = static_cast<std::size_t>(seg_counts[leaf].owned);
      input.labels = &clustered.labels;
      input.geometry = plan.geometry;
      input.owned_cells = plan.parts[leaf].owned_cells;
      input.shadow_cells = plan.parts[leaf].shadow_cells;
      input.shadow_rings = plan.shadow_rings;
      summary = merge::build_leaf_summary(input).to_packet();
    }
    store.keep(leaf, clustered.labels);
    return {std::move(summary),
            host_build + clustered.stats.device_seconds};
  };

  // Leaf reads its partition from the segmented file (modeled); with
  // direct transport the data already arrived over the network. Driven
  // by the counts so resident and out-of-core runs charge identically.
  const auto leaf_read_seconds = [&](std::size_t leaf) {
    return config_.transport == partition::Transport::kDirect
               ? 0.0
               : sim::lustre_read_seconds(
                     config_.titan.lustre,
                     seg_counts[leaf].total() * io::kBinaryRecordSize,
                     std::max<std::size_t>(1, leaf_count),
                     sim::kSequentialOp);
  };

  // Leaves run in chunks: a resident run is one chunk of every leaf; out
  // of core, a chunk is working_set leaves, so at most that many are
  // loaded at once, and a checkpoint lands after every chunk so a kill
  // forfeits one chunk of work (DESIGN §15). A leaf is `done` once its
  // summary packet, ready time, stats, and label spill exist; the
  // manifest is exactly the done frontier. Merge state is a pure
  // function of the leaf summaries, so nothing else needs saving.
  const std::filesystem::path checkpoint_path = spool / "checkpoint.mrck";
  std::size_t chunk = leaf_count;
  // The entries a resume restored: the manifest this run's checkpoints
  // start from.
  fault::CheckpointManifest restored;
  if (ooc) {
    chunk = std::max<std::size_t>(1, config_.ooc.working_set);
    if (config_.ooc.checkpoint || config_.ooc.resume) {
      restored.fingerprint = ooc_fingerprint(config_, gpu_config, points);
    }
    restored.total_leaves = leaf_count;
    if (config_.ooc.resume) {
      restored = fault::load_checkpoint(checkpoint_path, restored.fingerprint);
      MRSCAN_REQUIRE_MSG(restored.total_leaves == leaf_count,
                         "checkpoint leaf count does not match this run");
      std::erase_if(restored.entries, [&](const fault::CheckpointEntry& e) {
        return !store.spill_intact(e.rank, e.labels_bytes, e.labels_digest);
      });
      for (const fault::CheckpointEntry& entry : restored.entries) {
        const std::size_t rank = entry.rank;
        leaf_packets[rank] = mrnet::Packet(entry.summary);
        leaf_ready[rank] = entry.ready_seconds;
        result.leaf_stats[rank] = decode_gpu_stats(entry.stats);
        leaf_done[rank] = kRestored;
      }
      result.ooc_leaves_restored = restored.entries.size();
    }
    reg.set("ooc.working_set", static_cast<double>(chunk));
    reg.add("ooc.leaves_restored", result.ooc_leaves_restored);
    reg.add("ooc.chunks", 0);
    reg.add("ooc.leaves_clustered", 0);
    reg.add("ooc.checkpoint_writes", 0);
    reg.add("ooc.checkpoint_bytes", 0);
    reg.add("ooc.mapped_bytes", 0);
  }
  // Append the entries of the leaves the chunk [begin, end) clustered,
  // in rank order, so a fresh run's manifest has the bytes one
  // save_checkpoint of every entry would write.
  const auto append_ooc_checkpoint = [&](std::size_t begin, std::size_t end) {
    const obs::LayerSpan span(recorder.get(), "fault.checkpoint");
    std::vector<fault::CheckpointEntry> entries;
    for (std::size_t leaf = begin; leaf < end; ++leaf) {
      if (leaf_done[leaf] != kClustered) continue;
      fault::CheckpointEntry entry;
      entry.rank = static_cast<std::uint32_t>(leaf);
      entry.ready_seconds = leaf_ready[leaf];
      entry.labels_bytes = store.kept_bytes(leaf);
      entry.labels_digest = store.kept_digest(leaf);
      entry.stats = encode_gpu_stats(result.leaf_stats[leaf]);
      const auto packet_bytes = leaf_packets[leaf].bytes();
      entry.summary.assign(packet_bytes.begin(), packet_bytes.end());
      entries.push_back(std::move(entry));
    }
    if (entries.empty()) return;
    const std::size_t bytes =
        fault::append_checkpoint(checkpoint_path, entries);
    reg.add("ooc.checkpoint_writes", 1);
    reg.add("ooc.checkpoint_bytes", bytes);
  };

  {
    obs::PhaseScope scope(*recorder, "cluster");
    // The manifest is created once, atomically, holding only what this
    // run restored: a torn tail, or an entry whose spill failed its
    // check, is gone from it. Each chunk then appends its leaves' entries.
    if (ooc && config_.ooc.checkpoint) {
      const obs::LayerSpan span(recorder.get(), "fault.checkpoint");
      reg.add("ooc.checkpoint_bytes",
              fault::save_checkpoint(checkpoint_path, restored));
    }
    // The per-leaf loop is the host-side concurrency the paper's
    // thousands of leaves give for free (§3.2); a ThreadPool supplies it.
    // Every iteration writes only its own slots of leaf_* /
    // result.leaf_stats and the store, and the cross-leaf
    // gpu_dbscan_seconds max is reduced after the merge barrier (so
    // recovery re-runs are included too) — which is what keeps the
    // output bit-identical for any worker count (DESIGN §8).
    std::size_t fresh_clustered = 0;
    for (std::size_t begin = 0; begin < leaf_count; begin += chunk) {
      const std::size_t end = std::min(leaf_count, begin + chunk);
      pool.parallel_for(begin, end, [&](std::size_t leaf) {
        if (leaf_done[leaf] != 0) return;  // restored from checkpoint
        const obs::LayerSpan span(recorder.get(), "cluster leaf", leaf,
                                  "leaf");
        if (injector && injector->leaf_killed_before_cluster(
                            static_cast<std::uint32_t>(leaf))) {
          // The leaf process died before any clustering work; its
          // partition is re-read and clustered on a sibling during the
          // reduction.
          return;
        }
        const double read_time = leaf_read_seconds(leaf);
        auto summary = cluster_leaf(leaf);
        leaf_packets[leaf] = std::move(summary.first);
        leaf_ready[leaf] = read_time + summary.second;
        leaf_done[leaf] = kClustered;
      });
      // parallel_for rethrows the first leaf failure; any concurrent ones
      // must have been counted, never silently swallowed.
      MRSCAN_ASSERT_MSG(pool.dropped_exceptions() == 0,
                        "cluster phase swallowed a worker exception");
      if (!ooc) continue;
      const auto fresh = static_cast<std::size_t>(std::count(
          leaf_done.begin() + static_cast<std::ptrdiff_t>(begin),
          leaf_done.begin() + static_cast<std::ptrdiff_t>(end), kClustered));
      fresh_clustered += fresh;
      reg.add("ooc.chunks", 1);
      reg.add("ooc.leaves_clustered", fresh);
      if (config_.ooc.checkpoint) append_ooc_checkpoint(begin, end);
      if (config_.ooc.abort_after_leaves != 0 &&
          fresh_clustered >= config_.ooc.abort_after_leaves) {
        throw OocAborted(
            "mrscan: out-of-core run aborted after " +
            std::to_string(fresh_clustered) +
            " freshly clustered leaves (OocOptions::abort_after_leaves)");
      }
    }
  }

  // The virtual clock so far: partition then startup, then the clustering
  // tree's reduction begins (leaf sim spans and the merge network's spans
  // are offset onto this global timeline).
  const double cluster_base = result.sim.partition + result.sim.startup;
  if (tracing) {
    // sequential-ok: tracing-only span emission, not phase compute
    for (std::size_t leaf = 0; leaf < leaf_count; ++leaf) {
      if (leaf_ready[leaf] <= 0.0) continue;  // killed leaves recover below
      tracer.sim_span("cluster leaf " + std::to_string(leaf), "leaf",
                      topology.leaves()[leaf], cluster_base,
                      cluster_base + leaf_ready[leaf]);
    }
  }

  // ---- Merge phase: summaries reduce up the tree (§3.3). ----
  mrnet::Network net(topology, config_.titan.net, config_.titan.cpu_op_rate);
  net.set_observer(recorder.get(), cluster_base);
  if (injector) {
    net.set_fault_injector(&*injector);
    net.set_recovery_handler(
        [&](std::uint32_t rank, double detected_at_s,
            double& recovery_cost_s) {
          // The adopting sibling re-reads the dead leaf's materialized
          // partition and re-clusters it from scratch. Runs on the
          // event-loop thread after the cluster-phase barrier, so
          // refilling the dead rank's slots cannot race the (already
          // joined) cluster workers.
          const double reread = partition::segment_reread_seconds(
              seg_counts[rank], config_.titan.lustre);
          auto summary = cluster_leaf(rank);
          recovery_cost_s = reread + summary.second;
          if (tracing) {
            const std::uint32_t track = topology.leaves()[rank];
            tracer.sim_span(
                "reread leaf " + std::to_string(rank) + " partition",
                "fault", track, detected_at_s, detected_at_s + reread);
            tracer.sim_span("recluster leaf " + std::to_string(rank),
                            "fault", track, detected_at_s + reread,
                            detected_at_s + recovery_cost_s);
          }
          return std::move(summary.first);
        });
  }
  std::unordered_map<std::uint32_t, merge::MergeResult> node_results;

  mrnet::Packet root_packet;
  {
    obs::PhaseScope scope(*recorder, "merge");
    root_packet = net.reduce(
        std::move(leaf_packets),
        [&](std::uint32_t node, std::vector<mrnet::Packet> children,
            std::uint64_t& ops) {
          const obs::LayerSpan span(recorder.get(), "merge.merge");
          // Per-child deserialization is independent (each Reader holds
          // its own cursor); fan it out slot-by-slot on the pool. The
          // merge itself needs all children and stays sequential.
          std::vector<merge::MergeSummary> summaries(children.size());
          pool.parallel_for(0, children.size(), [&](std::size_t i) {
            summaries[i] = merge::MergeSummary::from_packet(children[i]);
          });
          merge::MergeResult merged = merge::merge_summaries(
              summaries, plan.geometry, config_.params.eps);
          ops = merged.ops + 1;
          mrnet::Packet out = merged.merged.to_packet();
          node_results.emplace(node, std::move(merged));
          return out;
        },
        leaf_ready);
  }
  // Cross-node accumulators are reduced here, after the event loop, not
  // inside the filter: the filter must stay free of shared mutable state
  // so nothing races if filters ever run concurrently.
  // det-unordered-iter-ok: integer addition is commutative; order cannot leak
  for (const auto& [node, merged] : node_results) {
    result.merges_detected += merged.merges_detected;
  }
  reg.add("merge.merges_detected", result.merges_detected);
  // The reported GPGPU time is the slowest leaf's device time. Reduced
  // after the merge phase so a leaf re-clustered by the recovery handler
  // — which refills its leaf_stats slot during the reduction — contributes
  // its device_seconds too (a killed-before-cluster leaf has no stats at
  // all until recovery runs).
  for (const Stats& stats : result.leaf_stats) {
    result.gpu_dbscan_seconds =
        std::max(result.gpu_dbscan_seconds, stats.device_seconds);
    for (const GpuStatsField& f : kGpuStatsFields) {
      if (f.count != nullptr) {
        reg.add(f.metric, stats.*f.count);
      } else {
        reg.set_max(f.metric, stats.*f.seconds);
      }
    }
  }
  result.merge_net = net.stats();
  mrnet::record_network_stats(*recorder, "merge", result.merge_net);
  // Cluster + merge pipeline: completion of the reduction, which started
  // from per-leaf ready times.
  result.sim.cluster_merge = result.merge_net.last_op_seconds;

  // ---- Sweep phase: global ids travel back down (§3.4). ----
  std::vector<std::int64_t> root_ids;
  {
    const obs::LayerSpan span(recorder.get(), "sweep.assign");
    const merge::MergeSummary root_summary =
        merge::MergeSummary::from_packet(root_packet);
    const sweep::GlobalAssignment assignment =
        sweep::assign_global_ids(root_summary);
    result.cluster_count = assignment.cluster_count;
    root_ids.resize(assignment.cluster_count);
    for (std::size_t i = 0; i < root_ids.size(); ++i) {
      root_ids[i] = static_cast<std::int64_t>(i);
    }
  }

  // The sweep runs on its own network over the same tree (scatter keeps
  // no state from the reduction), so "net.sweep.*" is the sweep's traffic
  // alone.
  const double sweep_base = cluster_base + result.sim.cluster_merge;
  mrnet::Network sweep_net(topology, config_.titan.net,
                           config_.titan.cpu_op_rate);
  sweep_net.set_observer(recorder.get(), sweep_base);
  double scatter_seconds = 0.0;
  {
    obs::PhaseScope scope(*recorder, "sweep");
    scatter_seconds = sweep_net.scatter(
        pack_id_map(root_ids),
        [&](std::uint32_t node, const mrnet::Packet& incoming,
            std::uint32_t child) {
          // Reverse this node's merge: child cluster j belongs to merged
          // cluster map[pos][j], whose global id the incoming map carries.
          const auto it = node_results.find(node);
          MRSCAN_ASSERT_MSG(it != node_results.end(),
                            "sweep through a node that never merged");
          const auto& kids = topology.children(node);
          const auto pos_it = std::find(kids.begin(), kids.end(), child);
          MRSCAN_ASSERT(pos_it != kids.end());
          const std::size_t pos =
              static_cast<std::size_t>(pos_it - kids.begin());
          const std::vector<std::int64_t> incoming_ids =
              unpack_id_map(incoming);
          const auto& child_map = it->second.child_cluster_map[pos];
          std::vector<std::int64_t> child_ids(child_map.size());
          for (std::size_t j = 0; j < child_map.size(); ++j) {
            child_ids[j] = incoming_ids[child_map[j]];
          }
          return pack_id_map(child_ids);
        },
        // Leaves are delivered on the deterministic simulated event loop,
        // so the records land in the same order in either mode (DESIGN
        // §8, §15).
        [&](std::uint32_t leaf_rank, const mrnet::Packet& packet) {
          store.deliver(leaf_rank, unpack_id_map(packet));
        });
    store.finish(result, pool);
  }
  result.sweep_net = sweep_net.stats();
  mrnet::record_network_stats(*recorder, "sweep", result.sweep_net);

  // Leaves write the labelled output in parallel: contiguous runs at
  // per-cluster offsets (§3.4) — large ops, unlike the partition phase.
  const double output_write = sim::lustre_write_seconds(
      config_.titan.lustre, result.output_records * io::kLabeledRecordSize,
      leaf_count, 1ULL << 20);
  result.sim.sweep = scatter_seconds + output_write;

  // The four phases as top-level sim-clock spans on the root track, so a
  // trace opens with the Figure-9 breakdown before any per-node detail.
  if (tracing) {
    const double p = result.sim.partition;
    tracer.sim_span("sim:partition", "phase", 0, 0.0, p);
    tracer.sim_span("sim:startup", "phase", 0, p, cluster_base);
    tracer.sim_span("sim:cluster+merge", "phase", 0, cluster_base,
                    sweep_base);
    tracer.sim_span("sim:sweep", "phase", 0, sweep_base,
                    sweep_base + result.sim.sweep);
  }

  finalize();
  return result;
}

}  // namespace mrscan::core
