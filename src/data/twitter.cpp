#include "data/twitter.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "data/scaled_histogram.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace mrscan::data {

namespace {

struct City {
  double x, y;
  double sigma_x, sigma_y;
  double cum_weight;  // cumulative, for inverse-CDF sampling
};

std::vector<City> make_cities(const TwitterConfig& config, util::Rng& rng) {
  std::vector<City> cities;
  cities.reserve(config.num_cities);
  double cum = 0.0;
  const double log_min = std::log(config.city_sigma_min);
  const double log_max = std::log(config.city_sigma_max);
  for (std::size_t i = 0; i < config.num_cities; ++i) {
    City c;
    c.x = rng.uniform(config.window.min_x, config.window.max_x);
    c.y = rng.uniform(config.window.min_y, config.window.max_y);
    const double sigma =
        std::exp(rng.uniform(log_min, log_max));
    // Mild anisotropy: cities sprawl along one axis.
    const double aspect = rng.uniform(0.6, 1.6);
    c.sigma_x = sigma * aspect;
    c.sigma_y = sigma / aspect;
    cum += rng.pareto(1.0, config.city_weight_alpha);
    c.cum_weight = cum;
    cities.push_back(c);
  }
  return cities;
}

const City& pick_city(const std::vector<City>& cities, util::Rng& rng) {
  const double total = cities.back().cum_weight;
  const double u = rng.uniform(0.0, total);
  const auto it = std::lower_bound(
      cities.begin(), cities.end(), u,
      [](const City& c, double v) { return c.cum_weight < v; });
  return it == cities.end() ? cities.back() : *it;
}

}  // namespace

geom::PointSet generate_twitter(const TwitterConfig& config,
                                geom::PointId first_id) {
  MRSCAN_REQUIRE(config.num_cities > 0);
  MRSCAN_REQUIRE(config.background_fraction >= 0.0 &&
                 config.background_fraction <= 1.0);
  util::Rng city_rng(config.seed);
  const std::vector<City> cities = make_cities(config, city_rng);
  util::Rng rng = city_rng.split();

  geom::PointSet points;
  points.reserve(config.num_points);
  for (std::uint64_t i = 0; i < config.num_points; ++i) {
    geom::Point p;
    p.id = first_id + i;
    p.weight = 1.0f;
    if (rng.next_double() < config.background_fraction) {
      p.x = rng.uniform(config.window.min_x, config.window.max_x);
      p.y = rng.uniform(config.window.min_y, config.window.max_y);
    } else {
      const City& c = pick_city(cities, rng);
      // Clamp into the window so the grid extent stays bounded.
      p.x = std::clamp(c.x + rng.normal(0.0, c.sigma_x), config.window.min_x,
                       config.window.max_x);
      p.y = std::clamp(c.y + rng.normal(0.0, c.sigma_y), config.window.min_y,
                       config.window.max_y);
    }
    points.push_back(p);
  }
  return points;
}

index::CellHistogram twitter_histogram(const TwitterConfig& config,
                                       double eps,
                                       std::uint64_t sample_points) {
  MRSCAN_REQUIRE(sample_points > 0);
  TwitterConfig sample = config;
  sample.num_points = std::min(config.num_points, sample_points);
  return scaled_histogram(generate_twitter(sample), config.window, eps,
                          config.num_points);
}

}  // namespace mrscan::data
