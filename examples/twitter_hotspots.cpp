// Twitter hotspot analysis — the paper's motivating workload (§4.1).
//
//   $ ./examples/twitter_hotspots [num_points]
//
// Generates a synthetic geo-tweet dataset from the city-mixture model,
// clusters it with Eps = 0.1 degree / MinPts = 40 (one of the paper's
// settings), and reports the densest activity hotspots: centroid
// coordinates, point counts, and bounding extents — the kind of
// location-based social-media analysis the paper says Mr. Scan enables.
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "core/mrscan.hpp"
#include "data/twitter.hpp"
#include "quality/cluster_stats.hpp"

int main(int argc, char** argv) {
  using namespace mrscan;

  const std::uint64_t num_points =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 100'000;

  data::TwitterConfig tw;
  tw.num_points = num_points;
  const geom::PointSet tweets = data::generate_twitter(tw);
  std::printf("generated %llu geo-tweets over the continental US window\n",
              static_cast<unsigned long long>(num_points));

  core::MrScanConfig config;
  config.params = {0.1, 40};  // the paper's fine-grained analysis setting
  config.leaves = 8;
  config.partition_nodes = 4;

  const core::MrScan pipeline(config);
  const auto result = pipeline.run(tweets);
  std::printf("found %zu hotspots (clusters) and %zu clustered tweets\n",
              result.cluster_count, result.output.size());

  // Per-cluster geometry, ranked by tweet count (ties by cluster id).
  const auto ranked = quality::cluster_statistics(result.output);

  std::printf("\ntop hotspots by tweet volume:\n");
  std::printf("%8s %10s %12s %12s %16s\n", "cluster", "tweets",
              "centroid lon", "centroid lat", "extent (deg)");
  const std::size_t top = std::min<std::size_t>(10, ranked.size());
  for (std::size_t i = 0; i < top; ++i) {
    const quality::ClusterStats& h = ranked[i];
    std::printf("%8lld %10zu %12.3f %12.3f %9.2f x %.2f\n",
                static_cast<long long>(h.cluster), h.count, h.centroid_x,
                h.centroid_y, h.extent.width(), h.extent.height());
  }

  // Dense-box effectiveness on this heavy-tailed data.
  std::uint64_t dense_points = 0;
  for (const auto& stats : result.leaf_stats) {
    dense_points += stats.dense_points;
  }
  std::printf("\ndense-box optimisation eliminated %llu points from "
              "expansion (%.1f%%)\n",
              static_cast<unsigned long long>(dense_points),
              100.0 * static_cast<double>(dense_points) /
                  static_cast<double>(tweets.size()));
  return 0;
}
