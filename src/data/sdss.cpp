#include "data/sdss.hpp"

#include <algorithm>

#include "data/scaled_histogram.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace mrscan::data {

geom::PointSet generate_sdss(const SdssConfig& config,
                             geom::PointId first_id) {
  MRSCAN_REQUIRE(config.detections_per_object >= 1.0);
  util::Rng rng(config.seed);

  geom::PointSet points;
  points.reserve(config.num_points);
  geom::PointId next_id = first_id;

  // Emit objects until the requested point budget is reached. Each object
  // is a tight Gaussian clump whose detection count is 1 + Poisson-like
  // (exponential-rounded) around detections_per_object.
  while (points.size() < config.num_points) {
    if (rng.next_double() < config.background_fraction) {
      geom::Point p;
      p.id = next_id++;
      p.x = rng.uniform(config.window.min_x, config.window.max_x);
      p.y = rng.uniform(config.window.min_y, config.window.max_y);
      points.push_back(p);
      continue;
    }
    const double cx = rng.uniform(config.window.min_x, config.window.max_x);
    const double cy = rng.uniform(config.window.min_y, config.window.max_y);
    const auto detections = static_cast<std::uint64_t>(
        1.0 + rng.exponential(1.0 / config.detections_per_object));
    for (std::uint64_t d = 0;
         d < detections && points.size() < config.num_points; ++d) {
      geom::Point p;
      p.id = next_id++;
      p.x = std::clamp(cx + rng.normal(0.0, config.object_sigma),
                       config.window.min_x, config.window.max_x);
      p.y = std::clamp(cy + rng.normal(0.0, config.object_sigma),
                       config.window.min_y, config.window.max_y);
      points.push_back(p);
    }
  }
  return points;
}

index::CellHistogram sdss_histogram(const SdssConfig& config, double eps,
                                    std::uint64_t sample_points) {
  MRSCAN_REQUIRE(sample_points > 0);
  SdssConfig sample = config;
  sample.num_points = std::min(config.num_points, sample_points);
  return scaled_histogram(generate_sdss(sample), config.window, eps,
                          config.num_points);
}

}  // namespace mrscan::data
