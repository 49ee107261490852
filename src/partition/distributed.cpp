#include "partition/distributed.hpp"

#include <algorithm>
#include <functional>
#include <optional>

#include "geometry/bbox.hpp"
#include "index/grid.hpp"
#include "io/point_file.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace mrscan::partition {

namespace {

/// Serialise a histogram as (code, count) pairs.
mrnet::Packet pack_histogram(const index::CellHistogram& hist) {
  mrnet::Packet p;
  p.put_u64(hist.cell_count());
  for (const auto& e : hist.entries()) {
    p.put_u64(e.code);
    p.put_u64(e.count);
  }
  return p;
}

index::CellHistogram unpack_histogram(const mrnet::Packet& packet) {
  auto r = packet.reader();
  const std::uint64_t n = r.get_u64();
  std::vector<index::CellHistogram::Entry> entries;
  entries.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t code = r.get_u64();
    const std::uint64_t count = r.get_u64();
    entries.push_back({code, count});
  }
  return index::CellHistogram(std::move(entries));
}

/// Serialise the plan's partition boundaries for the downstream broadcast.
mrnet::Packet pack_plan(const PartitionPlan& plan) {
  mrnet::Packet p;
  p.put_f64(plan.geometry.origin_x);
  p.put_f64(plan.geometry.origin_y);
  p.put_f64(plan.geometry.cell_size);
  p.put_u64(plan.parts.size());
  for (const auto& part : plan.parts) {
    p.put_pod_vector(part.owned_cells);
    p.put_pod_vector(part.shadow_cells);
    p.put_u64(part.owned_points);
    p.put_u64(part.shadow_points);
  }
  return p;
}

/// Charge the input read and the partition output: the Lustre write of
/// the segmented file, or the direct send under kDirect.
void fill_io_times(PartitionPhaseResult& result, std::uint64_t input_bytes,
                   std::uint64_t output_bytes, std::size_t writers,
                   std::size_t n_parts, Transport transport,
                   const sim::TitanParams& titan) {
  // Input: large sequential reads.
  result.read_seconds = sim::lustre_read_seconds(
      titan.lustre, input_bytes, writers, sim::kSequentialOp);

  if (transport == Transport::kDirect) {
    // Future-work path (§6): partition data streams from the partitioner
    // leaves to the clustering processes over the interconnect. Senders
    // are the bottleneck; each also pays a per-message latency per
    // destination partition.
    const double stream =
        static_cast<double>(output_bytes) /
        (static_cast<double>(writers) * titan.net.bandwidth_bps);
    const double messages_per_sender =
        static_cast<double>(std::max<std::size_t>(n_parts, 1));
    result.send_seconds =
        stream + messages_per_sender * titan.net.latency_s;
    return;
  }

  // Output: each leaf contributes a little data to nearly every partition
  // at a required offset — small random writes (§5.1.1). Per-op size is
  // capped at a stripe fragment; tiny datasets may have even smaller
  // contributions per (leaf, partition).
  const std::uint64_t contributions =
      static_cast<std::uint64_t>(writers) * std::max<std::size_t>(n_parts, 1);
  const std::uint64_t avg_op = std::max<std::uint64_t>(
      1, std::min(sim::kSmallRandomWriteOp,
                  output_bytes / std::max<std::uint64_t>(contributions, 1)));
  result.write_seconds = sim::lustre_write_seconds(
      titan.lustre, output_bytes, writers, avg_op);
}

/// Mirror the phase's sub-costs, plan shape, and tree stats into the
/// per-run registry (the exporters' single source of truth).
void record_phase(obs::Recorder* recorder,
                  const PartitionPhaseResult& result) {
  if (recorder == nullptr) return;
  obs::Registry& reg = recorder->metrics();
  reg.set("partition.read_seconds", result.read_seconds);
  reg.set("partition.histogram_reduce_seconds",
          result.histogram_reduce_seconds);
  reg.set("partition.plan_seconds", result.plan_seconds);
  reg.set("partition.broadcast_seconds", result.broadcast_seconds);
  reg.set("partition.write_seconds", result.write_seconds);
  reg.set("partition.send_seconds", result.send_seconds);
  reg.add("partition.rebalance_moves", result.plan.rebalance_moves);
  reg.add("partition.parts", result.plan.part_count());
  reg.add("partition.points_owned", result.plan.total_owned_points());
  reg.add("partition.points_with_shadow",
          result.plan.total_points_with_shadow());
  mrnet::record_network_stats(*recorder, "partition", result.net_stats);
}

/// The phase that the real and the model partitioner share:
/// `leaf_histograms` gives each partitioner leaf's histogram packet; they
/// reduce up a flat tree, the root plans serially and broadcasts the
/// boundaries, then `output` produces the partitions and returns how many
/// points the write is charged for.
PartitionPhaseResult run_phase(
    const std::function<std::vector<mrnet::Packet>()>& leaf_histograms,
    const geom::GridGeometry& geometry, std::uint64_t input_points,
    const DistributedPartitionerConfig& config,
    const sim::TitanParams& titan,
    const std::function<std::uint64_t(PartitionPhaseResult&)>& output) {
  PartitionPhaseResult result;
  const std::size_t workers = config.partition_nodes;
  mrnet::Network net(mrnet::Topology::flat(workers), titan.net,
                     titan.cpu_op_rate);
  // The partition phase opens the run's virtual timeline (offset 0);
  // core places startup and the clustering tree after it.
  net.set_observer(config.recorder);
  index::CellHistogram hist;
  {
    const obs::LayerSpan span(config.recorder, "partition.histogram");
    const mrnet::Packet root_packet = net.reduce(
        leaf_histograms(), [](std::uint32_t,
                              std::vector<mrnet::Packet> children,
                              std::uint64_t& ops) {
          index::CellHistogram merged;
          for (const auto& c : children) {
            const index::CellHistogram h = unpack_histogram(c);
            ops += h.cell_count();
            merged.merge(h);
          }
          return pack_histogram(merged);
        });
    result.histogram_reduce_seconds = net.stats().last_op_seconds;
    hist = unpack_histogram(root_packet);
  }

  {
    const obs::LayerSpan span(config.recorder, "partition.plan");
    result.plan = plan_partitions(hist, geometry, config.planner);
    // Deterministic cost model: the serial planner walks every cell a
    // small constant number of times (packing + shadow + rebalance).
    result.plan_seconds = static_cast<double>(hist.cell_count()) * 50.0 /
                          titan.cpu_op_rate;
    result.broadcast_seconds =
        net.multicast(pack_plan(result.plan),
                      [](std::uint32_t, const mrnet::Packet&) {});
  }

  const std::uint64_t output_points = output(result);
  fill_io_times(result, input_points * io::kBinaryRecordSize,
                output_points * io::kBinaryRecordSize, workers,
                result.plan.part_count(), config.transport, titan);

  result.net_stats = net.stats();
  result.sim_seconds = result.read_seconds +
                       result.histogram_reduce_seconds + result.plan_seconds +
                       result.broadcast_seconds + result.write_seconds +
                       result.send_seconds;
  record_phase(config.recorder, result);
  return result;
}

}  // namespace

PartitionPhaseResult run_distributed_partitioner(
    std::span<const geom::Point> points,
    const DistributedPartitionerConfig& config,
    const sim::TitanParams& titan, util::ThreadPool& pool) {
  MRSCAN_REQUIRE(config.partition_nodes >= 1);
  MRSCAN_REQUIRE(config.eps > 0.0);
  MRSCAN_REQUIRE(config.planner.cell_refine >= 1);
  const std::size_t workers = config.partition_nodes;

  // Grid origin: the data's lower-left corner. Cell size is Eps divided
  // by the refinement factor (1 = the paper's Eps x Eps grid).
  geom::BBox box = geom::bbox_of(points);
  const geom::GridGeometry geometry{
      box.empty() ? 0.0 : box.min_x, box.empty() ? 0.0 : box.min_y,
      config.eps / static_cast<double>(config.planner.cell_refine)};

  // Each partitioner node histograms a disjoint slice and writes only its
  // own packet slot, so the build fans out on the host pool; the packets
  // (and hence the plan) are bit-identical for any worker count.
  const auto leaf_histograms = [&] {
    std::vector<mrnet::Packet> leaf_packets(workers);
    const std::size_t chunk = (points.size() + workers - 1) / workers;
    pool.parallel_for(0, workers, [&](std::size_t w) {
      const obs::LayerSpan span(config.recorder, "histogram node", w, "leaf");
      const std::size_t lo = std::min(points.size(), w * chunk);
      const std::size_t hi = std::min(points.size(), lo + chunk);
      index::CellHistogram local(geometry, points.subspan(lo, hi - lo));
      leaf_packets[w] = pack_histogram(local);
    });
    return leaf_packets;
  };

  // Leaves materialise the partitions and are charged for every point
  // they write.
  return run_phase(
      leaf_histograms, geometry, points.size(), config, titan,
      [&](PartitionPhaseResult& result) {
        // The grid build is the materialize layer. A resident run copies
        // no point here: it keeps the grid, and each leaf gathers its own
        // points from it when it loads. Out of core, writing the files is
        // the spill.
        std::optional<obs::LayerSpan> span(std::in_place, config.recorder,
                                           "partition.materialize");
        index::Grid grid(geometry, points);
        if (config.spool_dir.empty()) {
          // The counts walk the cells each leaf's gather walks, so they
          // are exactly the points it takes, representatives included.
          const std::size_t parts = result.plan.part_count();
          std::vector<io::SegmentCounts> counts(parts);
          pool.parallel_for(0, parts, [&](std::size_t pi) {
            counts[pi] = count_partition(result.plan, pi, grid, points,
                                         config.materialize);
          });
          result.segment_counts = std::move(counts);
          result.grid.emplace(std::move(grid));
        } else {
          // Out-of-core: spool each partition to its per-leaf segment
          // file and keep only the counts resident (DESIGN §15).
          span.emplace(config.recorder, "partition.spill");
          result.segment_counts = materialize_partitions_to_files(
              result.plan, grid, points, config.spool_dir, pool,
              config.materialize);
        }
        std::uint64_t output_points = 0;
        for (const auto& counts : result.segment_counts) {
          output_points += counts.total();
        }
        return output_points;
      });
}

PartitionPhaseResult run_distributed_partitioner_model(
    const index::CellHistogram& hist, const geom::GridGeometry& geometry,
    std::uint64_t virtual_point_count,
    const DistributedPartitionerConfig& config,
    const sim::TitanParams& titan) {
  MRSCAN_REQUIRE(config.partition_nodes >= 1);
  const std::size_t workers = config.partition_nodes;

  // Model leaves holding equal shares of the cells: split the global
  // histogram round-robin so packet sizes are realistic.
  const auto leaf_histograms = [&] {
    std::vector<std::vector<index::CellHistogram::Entry>> shares(workers);
    std::size_t w = 0;
    for (const auto& e : hist.entries()) {
      shares[w].push_back(e);
      w = (w + 1) % workers;
    }
    std::vector<mrnet::Packet> leaf_packets;
    leaf_packets.reserve(workers);
    for (auto& share : shares) {
      leaf_packets.push_back(
          pack_histogram(index::CellHistogram(std::move(share))));
    }
    return leaf_packets;
  };

  // Nothing is materialised; the write is charged for every point the
  // plan assigns, shadows included.
  return run_phase(leaf_histograms, geometry, virtual_point_count, config,
                   titan, [](PartitionPhaseResult& result) {
                     return result.plan.total_points_with_shadow();
                   });
}

}  // namespace mrscan::partition
