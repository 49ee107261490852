// Fixture: sim-ops-charge positive — a discarded cost-model return.
#include <cstddef>

#include "sim/titan.hpp"
#include "util/assert.hpp"

namespace fixture {

void dropped_seconds(const mrscan::sim::TitanParams& params,
                     std::size_t bytes) {
  MRSCAN_REQUIRE(bytes > 0);
  mrscan::sim::lustre_read_seconds(params, bytes);
}

}  // namespace fixture
