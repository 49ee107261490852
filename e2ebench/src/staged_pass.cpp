// The traced staged pass: one batch pass through the layers' public
// functions, in core::MrScan::run's order (partition -> cluster -> merge
// -> sweep, resident or out-of-core), with every call inside a span. It
// re-derives the Titan-model seconds the same way run() does, so its
// sim_s and its output bytes must equal an untraced pass exactly; the
// caller checks both.
//
// Span tree of one pass ("run" is the root; its children are the layer
// calls whose durations trace.coverage sums):
//   io.read | partition.histogram | partition.plan | partition.materialize
//   | partition.spill | gpu.cluster_phase (-> gpu.leaf -> io.map,
//   gpu.dbscan, merge.summary, io.spill_labels; fault.checkpoint)
//   | mrnet.reduce (-> merge.merge) | sweep.assign | mrnet.scatter
//   (-> io.map, sweep.label, io.append) | io.append | io.read_labeled
//   | io.write_text
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <optional>
#include <unordered_map>

#include "bench.hpp"
#include "fault/checkpoint.hpp"
#include "geometry/bbox.hpp"
#include "gpu/device.hpp"
#include "gpu/mrscan_gpu.hpp"
#include "index/cell_histogram.hpp"
#include "index/grid.hpp"
#include "io/checked_file.hpp"
#include "io/labeled_file.hpp"
#include "io/mapped_segment.hpp"
#include "io/point_file.hpp"
#include "merge/merger.hpp"
#include "merge/summary.hpp"
#include "mrnet/network.hpp"
#include "mrnet/topology.hpp"
#include "partition/materialize.hpp"
#include "partition/partitioner.hpp"
#include "sim/titan.hpp"
#include "util/thread_pool.hpp"

namespace e2e {

using namespace mrscan;

namespace {

// Wire forms private to partition/distributed.cpp and core/mrscan.cpp.
// The simulated network charges by packet size, so these must stay
// byte-for-byte the same; the sim_s equality check catches any drift.

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

mrnet::Packet pack_plan(const partition::PartitionPlan& plan) {
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

mrnet::Packet pack_id_map(const std::vector<std::int64_t>& ids) {
  mrnet::Packet p;
  p.put_pod_vector(ids);
  return p;
}

/// The checkpoint's opaque GPU-stats blob: 15 eight-byte fields.
std::vector<std::uint8_t> stats_blob(const gpu::GpuDbscanStats& s) {
  mrnet::Packet p;
  for (const std::uint64_t v :
       {std::uint64_t{s.dense_boxes}, std::uint64_t{s.dense_points},
        std::uint64_t{s.chains}, std::uint64_t{s.collisions}, s.distance_ops,
        s.kernel_launches, s.h2d_transfers, s.d2h_transfers}) {
    p.put_u64(v);
  }
  p.put_f64(s.device_seconds);
  for (const std::uint64_t v :
       {std::uint64_t{s.cellgraph_cells}, std::uint64_t{s.cellgraph_core_cells},
        std::uint64_t{s.cellgraph_wholesale_points}, s.cellgraph_bcp_pairs,
        s.cellgraph_bcp_ops, s.bvh_node_steps}) {
    p.put_u64(v);
  }
  const auto bytes = p.bytes();
  return {bytes.begin(), bytes.end()};
}

std::filesystem::path labels_path(const std::filesystem::path& dir,
                                  std::size_t leaf) {
  return dir / ("labels_" + std::to_string(leaf) + ".lbl");
}

}  // namespace

BatchRun run_staged(const Workload& workload, const RunPaths& paths,
                    SpanRecorder& rec, std::uint64_t run_id) {
  const core::MrScanConfig& cfg = workload.config;
  const sim::TitanParams& titan = cfg.titan;
  const bool ooc = cfg.ooc.enabled;
  const std::filesystem::path& spool = paths.spool;
  if (ooc) std::filesystem::remove_all(spool);
  BatchRun run;
  // Counts summed on the pool workers; times come from the spans.
  std::atomic<std::uint64_t> mapped_bytes{0};
  std::atomic<std::uint64_t> summary_bytes{0};
  std::uint64_t merge_ops = 0;
  std::uint64_t merges_detected = 0;

  const double t0 = now_s();
  const Scope root(&rec, "run", -1, run_id);
  const std::int64_t top = root.id();
  const auto span = [&](const char* name, std::int64_t parent) {
    return Scope(&rec, name, parent, run_id);
  };

  geom::PointSet points;
  {
    auto s = span("io.read", top);
    points = io::read_points_binary(paths.input);
  }
  if (ooc) std::filesystem::create_directories(spool);

  // ---- partition: histogram, plan, materialize (run_distributed_
  // partitioner's steps, each its own span) ----
  const std::size_t workers = cfg.partition_nodes;
  util::ThreadPool part_pool(cfg.host_threads);
  mrnet::Network part_net(mrnet::Topology::flat(workers), titan.net,
                          titan.cpu_op_rate);
  geom::GridGeometry geometry;
  index::CellHistogram hist;
  double histogram_reduce_s = 0.0;
  {
    auto s = span("partition.histogram", top);
    const geom::BBox box = geom::bbox_of(points);
    geometry = {box.empty() ? 0.0 : box.min_x, box.empty() ? 0.0 : box.min_y,
                cfg.params.eps / static_cast<double>(cfg.cell_refine)};
    std::vector<mrnet::Packet> node_packets(workers);
    const std::size_t chunk = (points.size() + workers - 1) / workers;
    part_pool.parallel_for(0, workers, [&](std::size_t w) {
      const std::size_t lo = std::min(points.size(), w * chunk);
      const std::size_t hi = std::min(points.size(), lo + chunk);
      node_packets[w] = pack_histogram(index::CellHistogram(
          geometry, std::span<const geom::Point>(points).subspan(lo, hi - lo)));
    });
    const mrnet::Packet merged = part_net.reduce(
        std::move(node_packets),
        [](std::uint32_t, std::vector<mrnet::Packet> children,
           std::uint64_t& ops) {
          index::CellHistogram sum;
          for (const auto& c : children) {
            const index::CellHistogram h = unpack_histogram(c);
            ops += h.cell_count();
            sum.merge(h);
          }
          return pack_histogram(sum);
        });
    histogram_reduce_s = part_net.stats().last_op_seconds;
    hist = unpack_histogram(merged);
  }
  partition::PartitionPlan plan;
  double broadcast_s = 0.0;
  {
    auto s = span("partition.plan", top);
    plan = partition::plan_partitions(
        hist, geometry,
        partition::PartitionerConfig{cfg.leaves, cfg.params.min_pts,
                                     cfg.rebalance, cfg.rebalance_threshold,
                                     cfg.shadow_regions, cfg.cell_refine});
    broadcast_s = part_net.multicast(
        pack_plan(plan), [](std::uint32_t, const mrnet::Packet&) {});
  }
  partition::MaterializeConfig materialize;
  materialize.shadow_rep_threshold = cfg.shadow_rep_threshold;
  std::vector<io::Segment> segments;
  std::vector<io::SegmentCounts> seg_counts;
  {
    std::optional<index::Grid> grid;
    {
      auto s = span("partition.materialize", top);
      grid.emplace(geometry, points);
      if (!ooc) {
        segments =
            partition::materialize_partitions(plan, *grid, points, materialize);
        for (const auto& seg : segments) {
          seg_counts.push_back({seg.owned.size(), seg.shadow.size()});
        }
      }
    }
    if (ooc) {
      // One public call materializes and writes the segment files.
      auto s = span("partition.spill", top);
      seg_counts = partition::materialize_partitions_to_files(
          plan, *grid, points, spool, part_pool, materialize);
    }
  }
  std::uint64_t partition_points = 0;
  for (const auto& c : seg_counts) partition_points += c.total();
  // Partition-phase model: input read, histogram reduce, serial plan,
  // broadcast, and small random writes of the segmented file (Lustre).
  const std::size_t n_parts = std::max<std::size_t>(plan.part_count(), 1);
  const std::uint64_t out_bytes = partition_points * io::kBinaryRecordSize;
  const std::uint64_t avg_op = std::max<std::uint64_t>(
      1, std::min(sim::kSmallRandomWriteOp,
                  out_bytes / std::max<std::uint64_t>(workers * n_parts, 1)));
  const double partition_sim =
      sim::lustre_read_seconds(titan.lustre,
                               points.size() * io::kBinaryRecordSize, workers,
                               sim::kSequentialOp) +
      histogram_reduce_s +
      static_cast<double>(hist.cell_count()) * 50.0 / titan.cpu_op_rate +
      broadcast_s +
      sim::lustre_write_seconds(titan.lustre, out_bytes, workers, avg_op);

  // ---- cluster: per-leaf GPGPU DBSCAN + leaf summary ----
  const std::size_t leaf_count = seg_counts.size();
  const mrnet::Topology topology =
      mrnet::Topology::balanced(leaf_count, cfg.fanout);
  const double startup_sim = sim::alps_startup_seconds(
      titan.alps, topology.node_count() + cfg.partition_nodes);
  gpu::MrScanGpuConfig gpu_config = cfg.gpu;
  gpu_config.params = cfg.params;
  gpu_config.cluster_algo = cfg.cluster_algo;
  gpu_config.index_backend = cfg.index_backend;

  std::vector<dbscan::Labeling> leaf_labels(leaf_count);
  std::vector<mrnet::Packet> leaf_packets(leaf_count);
  std::vector<double> leaf_ready(leaf_count, 0.0);
  std::vector<double> leaf_wall(leaf_count, 0.0);
  std::vector<geom::PointSet> leaf_points(leaf_count);
  std::vector<gpu::GpuDbscanStats> leaf_stats(leaf_count);
  util::ThreadPool pool(cfg.host_threads);

  const auto cluster_points = [&](std::size_t leaf, const geom::PointSet& pts,
                                  std::size_t owned, dbscan::Labeling& labels,
                                  std::int64_t parent) {
    double host_build = 0.0;
    {
      auto s = span("gpu.dbscan", parent);
      gpu::VirtualDevice device(titan.gpu_spec);
      gpu::GpuDbscanResult clustered =
          gpu::mrscan_gpu_dbscan(pts, gpu_config, device);
      leaf_stats[leaf] = clustered.stats;
      labels = std::move(clustered.labels);
      if (!pts.empty()) {
        host_build = static_cast<double>(pts.size()) *
                     std::log2(static_cast<double>(pts.size()) + 1) /
                     titan.cpu_op_rate;
      }
    }
    auto s = span("merge.summary", parent);
    merge::LeafSummaryInput input;
    input.points = pts;
    input.owned_count = owned;
    input.labels = &labels;
    input.geometry = plan.geometry;
    input.owned_cells = plan.parts[leaf].owned_cells;
    input.shadow_cells = plan.parts[leaf].shadow_cells;
    input.shadow_rings = plan.shadow_rings;
    leaf_packets[leaf] = merge::build_leaf_summary(input).to_packet();
    summary_bytes += leaf_packets[leaf].size_bytes();
    return host_build + leaf_stats[leaf].device_seconds;
  };

  const auto run_leaf = [&](std::size_t leaf, std::int64_t parent) {
    const double begin = now_s();
    auto s = span("gpu.leaf", parent);
    const double read_sim = sim::lustre_read_seconds(
        titan.lustre, seg_counts[leaf].total() * io::kBinaryRecordSize,
        std::max<std::size_t>(1, leaf_count), sim::kSequentialOp);
    double compute_sim = 0.0;
    if (!ooc) {
      geom::PointSet& pts = leaf_points[leaf];
      pts = segments[leaf].owned;
      pts.insert(pts.end(), segments[leaf].shadow.begin(),
                 segments[leaf].shadow.end());
      compute_sim = cluster_points(leaf, pts, segments[leaf].owned.size(),
                                   leaf_labels[leaf], s.id());
    } else {
      std::optional<io::MappedSegment> seg;
      geom::PointSet pts;
      {
        auto m = span("io.map", s.id());
        seg.emplace(io::segment_file_path(spool, leaf));
        mapped_bytes += seg->mapped_bytes();
        pts = seg->decode_all();
      }
      const auto owned = static_cast<std::size_t>(seg->owned_count());
      dbscan::Labeling labels;
      compute_sim = cluster_points(leaf, pts, owned, labels, s.id());
      auto w = span("io.spill_labels", s.id());
      std::vector<std::uint8_t> buf(owned * sizeof(std::int64_t));
      if (owned > 0) std::memcpy(buf.data(), labels.cluster.data(), buf.size());
      io::write_file_atomic(labels_path(spool, leaf), buf);
    }
    leaf_ready[leaf] = read_sim + compute_sim;
    leaf_wall[leaf] = now_s() - begin;
  };

  std::size_t checkpoint_bytes = 0;
  {
    auto phase = span("gpu.cluster_phase", top);
    const std::int64_t phase_id = phase.id();
    if (!ooc) {
      pool.parallel_for(0, leaf_count,
                        [&](std::size_t leaf) { run_leaf(leaf, phase_id); });
    } else {
      const std::size_t working_set =
          std::max<std::size_t>(1, cfg.ooc.working_set);
      for (std::size_t begin = 0; begin < leaf_count; begin += working_set) {
        const std::size_t end = std::min(leaf_count, begin + working_set);
        pool.parallel_for(begin, end,
                          [&](std::size_t leaf) { run_leaf(leaf, phase_id); });
        if (!cfg.ooc.checkpoint) continue;
        // The manifest after each chunk lists every finished leaf.
        auto c = span("fault.checkpoint", phase_id);
        fault::CheckpointManifest manifest;
        manifest.total_leaves = leaf_count;
        for (std::size_t leaf = 0; leaf < end; ++leaf) {
          fault::CheckpointEntry entry;
          entry.rank = static_cast<std::uint32_t>(leaf);
          entry.ready_seconds = leaf_ready[leaf];
          entry.labels_bytes = seg_counts[leaf].owned * sizeof(std::int64_t);
          entry.stats = stats_blob(leaf_stats[leaf]);
          const auto bytes = leaf_packets[leaf].bytes();
          entry.summary.assign(bytes.begin(), bytes.end());
          manifest.entries.push_back(std::move(entry));
        }
        checkpoint_bytes +=
            fault::save_checkpoint(spool / "checkpoint.mrck", manifest);
      }
    }
  }

  // ---- merge: summaries reduce up the clustering tree ----
  mrnet::Network net(topology, titan.net, titan.cpu_op_rate);
  std::unordered_map<std::uint32_t, merge::MergeResult> node_results;
  mrnet::Packet root_packet;
  {
    auto r = span("mrnet.reduce", top);
    const std::int64_t reduce_id = r.id();
    root_packet = net.reduce(
        std::move(leaf_packets),
        [&](std::uint32_t node, std::vector<mrnet::Packet> children,
            std::uint64_t& ops) {
          auto m = span("merge.merge", reduce_id);
          std::vector<merge::MergeSummary> summaries(children.size());
          pool.parallel_for(0, children.size(), [&](std::size_t i) {
            summaries[i] = merge::MergeSummary::from_packet(children[i]);
          });
          merge::MergeResult merged = merge::merge_summaries(
              summaries, plan.geometry, cfg.params.eps);
          ops = merged.ops + 1;
          merge_ops += merged.ops;
          merges_detected += merged.merges_detected;
          mrnet::Packet out = merged.merged.to_packet();
          node_results.emplace(node, std::move(merged));
          return out;
        },
        leaf_ready);
  }
  const double cluster_merge_sim = net.stats().last_op_seconds;
  const std::uint64_t bytes_up = net.stats().bytes_up;

  // ---- sweep: global ids travel back down; leaves label owned points ----
  std::vector<std::int64_t> root_ids;
  {
    auto s = span("sweep.assign", top);
    const sweep::GlobalAssignment assignment = sweep::assign_global_ids(
        merge::MergeSummary::from_packet(root_packet));
    run.clusters = assignment.cluster_count;
    root_ids.resize(assignment.cluster_count);
    for (std::size_t i = 0; i < root_ids.size(); ++i) {
      root_ids[i] = static_cast<std::int64_t>(i);
    }
  }
  std::optional<io::LabeledFileWriter> writer;
  double scatter_sim = 0.0;
  {
    auto sc = span("mrnet.scatter", top);
    const std::int64_t scatter_id = sc.id();
    if (ooc) writer.emplace(spool / "output.labeled");
    scatter_sim = net.scatter(
        pack_id_map(root_ids),
        [&](std::uint32_t node, const mrnet::Packet& incoming,
            std::uint32_t child) {
          const merge::MergeResult& merged = node_results.at(node);
          const auto& kids = topology.children(node);
          const auto pos = static_cast<std::size_t>(
              std::find(kids.begin(), kids.end(), child) - kids.begin());
          const auto ids = incoming.reader().get_pod_vector<std::int64_t>();
          const auto& child_map = merged.child_cluster_map[pos];
          std::vector<std::int64_t> child_ids(child_map.size());
          for (std::size_t j = 0; j < child_map.size(); ++j) {
            child_ids[j] = ids[child_map[j]];
          }
          return pack_id_map(child_ids);
        },
        [&](std::uint32_t leaf, const mrnet::Packet& packet) {
          const auto global_of_local =
              packet.reader().get_pod_vector<std::int64_t>();
          if (!ooc) {
            auto s = span("sweep.label", scatter_id);
            auto records = sweep::label_owned_points(
                std::span<const geom::Point>(leaf_points[leaf])
                    .first(segments[leaf].owned.size()),
                leaf_labels[leaf], global_of_local, cfg.keep_noise);
            run.output.insert(run.output.end(), records.begin(),
                              records.end());
            return;
          }
          geom::PointSet owned;
          dbscan::Labeling labels;
          {
            auto m = span("io.map", scatter_id);
            const io::MappedSegment seg(io::segment_file_path(spool, leaf));
            mapped_bytes += seg.mapped_bytes();
            owned = seg.decode_owned();
            const std::vector<std::uint8_t> bytes =
                io::read_file_bytes(labels_path(spool, leaf));
            labels.cluster.resize(owned.size());
            labels.core.assign(owned.size(), 0);
            std::memcpy(labels.cluster.data(), bytes.data(),
                        std::min(bytes.size(),
                                 owned.size() * sizeof(std::int64_t)));
          }
          std::vector<sweep::LabeledPoint> records;
          {
            auto s = span("sweep.label", scatter_id);
            records = sweep::label_owned_points(owned, labels,
                                                global_of_local,
                                                cfg.keep_noise);
          }
          auto a = span("io.append", scatter_id);
          for (const sweep::LabeledPoint& record : records) {
            writer->append(record.point, record.cluster);
          }
        });
  }
  if (ooc) {
    {
      auto s = span("io.append", top);
      writer->close();
      run.records = writer->records();
    }
    auto s = span("io.read_labeled", top);
    io::LabeledFileReader reader(spool / "output.labeled");
    run.output.reserve(reader.records());
    geom::Point point;
    std::int64_t cluster = 0;
    while (reader.next(point, cluster)) {
      run.output.push_back(sweep::LabeledPoint{point, cluster});
    }
  } else {
    run.records = run.output.size();
  }
  {
    auto s = span("io.write_text", top);
    sweep::write_labeled_text(paths.output, run.output);
  }
  run.wall_s = now_s() - t0;

  const double sweep_sim =
      scatter_sim +
      sim::lustre_write_seconds(titan.lustre,
                                run.records * io::kLabeledRecordSize,
                                leaf_count, 1ULL << 20);
  run.sim_s = startup_sim + partition_sim + cluster_merge_sim + sweep_sim;

  // ---- per-layer metrics ----
  // Busy seconds per span name, and the share of the pass that the layer
  // calls directly under the root cover.
  std::map<std::string, double> busy;
  double covered = 0.0;
  for (const Span& s : rec.spans()) {
    if (s.run != run_id || s.name == "run") continue;
    busy[s.name + "_s"] += s.end - s.begin;
    if (s.parent == top) covered += s.end - s.begin;
  }
  const auto time_of = [&](const std::string& name) {
    const auto it = busy.find(name);
    return it == busy.end() ? 0.0 : it->second;
  };
  auto& m = run.layers;
  const auto set = [&](const std::string& name, double v, const char* unit) {
    m[name] = Metric{v, unit};
  };
  double leaf_sum = 0.0;
  double leaf_max = 0.0;
  for (const double w : leaf_wall) {
    leaf_sum += w;
    leaf_max = std::max(leaf_max, w);
  }
  double distance_ops = 0.0, launches = 0.0, dense = 0.0, bcp = 0.0;
  double device_max = 0.0;
  for (const auto& st : leaf_stats) {
    distance_ops += static_cast<double>(st.distance_ops);
    launches += static_cast<double>(st.kernel_launches);
    dense += static_cast<double>(st.dense_points);
    bcp += static_cast<double>(st.cellgraph_bcp_ops);
    device_max = std::max(device_max, st.device_seconds);
  }
  const double write_s = time_of("io.write_text_s");
  set("trace.coverage", covered / run.wall_s, "ratio");
  set("core.self_s", run.wall_s - covered, "s");
  set("gpu.cluster_s", time_of("gpu.cluster_phase_s"), "s");
  set("gpu.leaf_max_s", leaf_max, "s");
  set("gpu.leaf_imbalance",
      leaf_sum > 0.0 ? leaf_max * static_cast<double>(leaf_count) / leaf_sum
                     : 0.0,
      "ratio");
  set("gpu.distance_ops", distance_ops, "count");
  set("gpu.kernel_launches", launches, "count");
  set("gpu.dense_points", dense, "count");
  set("cluster.cellgraph.bcp_ops", bcp, "count");
  set("gpu.device_s_max", device_max, "s");
  set("io.read_s", time_of("io.read_s"), "s");
  set("io.write_text_s", write_s, "s");
  set("io.write_mb_per_s",
      write_s > 0.0 ? static_cast<double>(std::filesystem::file_size(
                          paths.output)) / 1e6 / write_s
                    : 0.0,
      "MB/s");
  set("io.map_s", time_of("io.map_s"), "s");
  set("io.mapped_bytes", static_cast<double>(mapped_bytes), "bytes");
  set("partition.histogram_s", time_of("partition.histogram_s"), "s");
  set("partition.plan_s", time_of("partition.plan_s"), "s");
  set("partition.materialize_s", time_of("partition.materialize_s"), "s");
  set("partition.spill_s", time_of("partition.spill_s"), "s");
  set("partition.shadow_ratio",
      static_cast<double>(partition_points) /
          static_cast<double>(std::max<std::size_t>(1, points.size())),
      "ratio");
  set("partition.rebalance_moves", static_cast<double>(plan.rebalance_moves),
      "count");
  set("merge.summary_s", time_of("merge.summary_s"), "s");
  set("merge.summary_bytes", static_cast<double>(summary_bytes), "bytes");
  set("merge.merge_s", time_of("merge.merge_s"), "s");
  set("merge.merges_detected", static_cast<double>(merges_detected),
      "count");
  set("merge.ops", static_cast<double>(merge_ops), "count");
  set("mrnet.reduce_self_s",
      time_of("mrnet.reduce_s") - time_of("merge.merge_s"), "s");
  set("mrnet.bytes_up", static_cast<double>(bytes_up), "bytes");
  set("fault.checkpoint_s", time_of("fault.checkpoint_s"), "s");
  set("fault.checkpoint_bytes", static_cast<double>(checkpoint_bytes),
      "bytes");
  set("sweep.label_s", time_of("sweep.label_s"), "s");
  set("sweep.records", static_cast<double>(run.records), "count");
  return run;
}

}  // namespace e2e
