// Fixture: sim-ops-charge negatives — an accumulated cost-model return
// and a suppressed drop.
#include <cstddef>

#include "sim/titan.hpp"
#include "util/assert.hpp"

namespace fixture {

double accumulated_seconds(const mrscan::sim::TitanParams& params,
                           std::size_t bytes) {
  MRSCAN_REQUIRE(bytes > 0);
  double total = 0.0;
  total += mrscan::sim::lustre_read_seconds(params, bytes);
  const double write_s = mrscan::sim::lustre_write_seconds(params, bytes);
  return total + write_s;
}

void suppressed_drop(const mrscan::sim::TitanParams& params) {
  mrscan::sim::lustre_write_seconds(params, 1);  // sim-ops-charge-ok: warm-up call in fixture
}

}  // namespace fixture
