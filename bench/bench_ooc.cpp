// Out-of-core scale bench (DESIGN §15), two sections in one export:
//
//   1. The 8,192-leaf Twitter-shaped replica on one box — the tentpole
//      scale proof — resident vs working sets {512, 64, 8}. At this
//      replica shape each part owns only ~18 Eps-cells, so shadow
//      replication runs ~13x and keeping every leaf's point set and
//      labels resident costs ~2 GiB; streamed, peak RSS drops to the
//      O(N)+summaries floor (~350 MiB) that must stay resident for the
//      merge tree, nearly independent of the working-set size.
//   2. A fat-leaf shape (64 leaves x 50k points) where per-leaf cluster
//      state dominates — the same bound, roughly halving peak RSS.
//
// Every cell reports peak RSS (VmHWM, reset per run) and cluster-phase
// throughput (leaves/s), exported as BENCH_ooc_scale.json for the
// README's measured table. Output identity between the modes is proven
// by the differential suite; this bench measures the memory/throughput
// trade.
//
//   MRSCAN_BENCH_OOC_LEAVES               scale section leaves (8192)
//   MRSCAN_BENCH_OOC_POINTS_PER_LEAF      scale section pts/leaf (200)
//   MRSCAN_BENCH_OOC_FAT_LEAVES           fat section leaves (64)
//   MRSCAN_BENCH_OOC_FAT_POINTS_PER_LEAF  fat section pts/leaf (50000)
#include <algorithm>
#include <cstdio>
#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/experiment.hpp"
#include "core/mrscan.hpp"
#include "data/twitter.hpp"
#include "obs/names.hpp"
#include "obs/registry.hpp"

namespace {

using namespace mrscan;

/// Peak resident set (VmHWM) of this process in MiB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
    in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0.0;
}

/// Reset the kernel's peak-RSS watermark (write "5" to clear_refs) so
/// each run measures its own peak instead of the process maximum.
/// Returns false where the kernel doesn't support the reset; peaks are
/// then cumulative and the bench says so.
bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  if (!out) return false;
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

struct OocCell {
  std::string label;   // "resident" or "ws<N>"
  double peak_rss = 0.0;
  double leaves_per_s = 0.0;
};

}  // namespace

int main() {
  const std::size_t leaves = static_cast<std::size_t>(
      bench::env_u64("MRSCAN_BENCH_OOC_LEAVES", 8192));
  const std::uint64_t points_per_leaf =
      bench::env_u64("MRSCAN_BENCH_OOC_POINTS_PER_LEAF", 200);
  const std::size_t fat_leaves = static_cast<std::size_t>(
      bench::env_u64("MRSCAN_BENCH_OOC_FAT_LEAVES", 64));
  const std::uint64_t fat_points_per_leaf =
      bench::env_u64("MRSCAN_BENCH_OOC_FAT_POINTS_PER_LEAF", 50000);

  const std::filesystem::path spool_base = "bench_ooc_spool";
  const bool rss_resets = reset_peak_rss();
  if (!rss_resets) {
    std::printf("note: VmHWM reset unsupported; peaks are cumulative\n");
  }

  std::vector<OocCell> cells;
  auto run_cell = [&](const std::string& label, std::size_t run_leaves,
                      const geom::PointSet& points,
                      std::size_t working_set) {
    if (rss_resets) reset_peak_rss();
    core::MrScanConfig config;
    config.params = {0.1, 20};
    config.leaves = run_leaves;
    config.fanout = 256;
    config.partition_nodes = 8;
    config.host_threads = 0;  // hardware concurrency; output is invariant
    if (working_set != 0) {
      config.ooc.enabled = true;
      config.ooc.dir = spool_base / label;
      config.ooc.working_set = working_set;
      // The checkpoint cadence is a durability knob, not a memory one;
      // keep the bench measuring the streaming itself.
      config.ooc.checkpoint = false;
      std::filesystem::remove_all(config.ooc.dir);
    }
    double cluster_s = 0.0;
    std::uint64_t output_records = 0;
    {
      const core::MrScan pipeline(config);
      const auto result = pipeline.run(points);
      cluster_s = result.obs->wall_seconds("cluster");
      output_records = result.output_records;
    }
    OocCell cell;
    cell.label = label;
    cell.peak_rss = peak_rss_mb();
    cell.leaves_per_s = cluster_s > 0.0
                            ? static_cast<double>(run_leaves) / cluster_s
                            : 0.0;
    std::printf("%14s: peak RSS %8.1f MiB, cluster %6.2fs "
                "(%8.1f leaves/s), %llu output records\n",
                label.c_str(), cell.peak_rss, cluster_s, cell.leaves_per_s,
                static_cast<unsigned long long>(output_records));
    cells.push_back(cell);
    if (working_set != 0) std::filesystem::remove_all(config.ooc.dir);
#if defined(__GLIBC__)
    // Return freed heap pages to the OS; without this the allocator's
    // retained arena becomes the next cell's watermark floor and every
    // later cell reads as "no drop" regardless of its true peak.
    malloc_trim(0);
#endif
  };

  bench::print_header("Out-of-core scale: 8,192-leaf replica on one box");
  data::TwitterConfig tw;
  tw.num_points = leaves * points_per_leaf;
  const geom::PointSet points = data::generate_twitter(tw);
  std::printf("replica: %zu leaves x %llu points/leaf = %zu points\n",
              leaves, static_cast<unsigned long long>(points_per_leaf),
              points.size());
  run_cell("resident", leaves, points, 0);
  std::vector<std::size_t> seen;
  for (const std::size_t ws : {512UL, 64UL, 8UL}) {
    // Clamp to the leaf count (tiny smoke configs) and skip repeats the
    // clamp would otherwise produce.
    const std::size_t clamped = std::min(ws, leaves);
    if (std::find(seen.begin(), seen.end(), clamped) != seen.end()) continue;
    seen.push_back(clamped);
    run_cell("ws" + std::to_string(clamped), leaves, points, clamped);
  }

  bench::print_header("Out-of-core fat leaves: working-set memory bound");
  data::TwitterConfig fat_tw;
  fat_tw.num_points = fat_leaves * fat_points_per_leaf;
  const geom::PointSet fat_points = data::generate_twitter(fat_tw);
  std::printf("replica: %zu leaves x %llu points/leaf = %zu points\n",
              fat_leaves,
              static_cast<unsigned long long>(fat_points_per_leaf),
              fat_points.size());
  run_cell("fat_resident", fat_leaves, fat_points, 0);
  run_cell("fat_ws8", fat_leaves, fat_points,
           std::min<std::size_t>(8, fat_leaves));

  std::filesystem::remove_all(spool_base);

  obs::Registry reg;
  reg.add("bench.leaves", leaves);
  reg.add("bench.points", points.size());
  for (const auto& cell : cells) {
    reg.set(std::string(obs::names::kBenchOocPrefix) + cell.label +
                ".peak_rss_mb",
            cell.peak_rss);
    reg.set(std::string(obs::names::kBenchOocPrefix) + cell.label +
                ".leaves_per_s",
            cell.leaves_per_s);
  }
  bench::write_bench_snapshot("ooc_scale", reg);
  return 0;
}
