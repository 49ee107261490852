#include "gpu/device.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace mrscan::gpu {

VirtualDevice::VirtualDevice(DeviceSpec spec) : spec_(std::move(spec)) {
  MRSCAN_REQUIRE(spec_.sm_count >= 1);
  MRSCAN_REQUIRE(spec_.block_op_rate > 0.0);
  MRSCAN_REQUIRE(spec_.pcie_bandwidth_bps > 0.0);
}

void VirtualDevice::copy_to_device(std::uint64_t bytes) {
  ++stats_.h2d_transfers;
  stats_.h2d_bytes += bytes;
  stats_.transfer_seconds +=
      spec_.pcie_latency_s +
      static_cast<double>(bytes) / spec_.pcie_bandwidth_bps;
}

void VirtualDevice::copy_to_host(std::uint64_t bytes) {
  ++stats_.d2h_transfers;
  stats_.d2h_bytes += bytes;
  stats_.transfer_seconds +=
      spec_.pcie_latency_s +
      static_cast<double>(bytes) / spec_.pcie_bandwidth_bps;
}

void VirtualDevice::account_launch(
    const std::vector<std::uint64_t>& block_ops) {
  ++stats_.kernel_launches;
  stats_.blocks_executed += block_ops.size();

  // Greedy list scheduling of blocks onto SMX slots, in launch order: each
  // block goes to the earliest-free slot. Kernel time = slowest slot.
  std::vector<double> slots(spec_.sm_count, 0.0);
  for (const std::uint64_t ops : block_ops) {
    stats_.total_ops += ops;
    auto slot = std::min_element(slots.begin(), slots.end());
    *slot += static_cast<double>(ops) / spec_.block_op_rate;
  }
  const double busy =
      slots.empty() ? 0.0 : *std::max_element(slots.begin(), slots.end());
  stats_.kernel_seconds += spec_.kernel_launch_overhead_s + busy;
}

}  // namespace mrscan::gpu
