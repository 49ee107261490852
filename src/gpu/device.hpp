// Virtual GPGPU device.
//
// The paper runs on NVIDIA Tesla K20 accelerators; this environment has no
// GPU, so the kernels are written against this device abstraction and
// executed on the host while a calibrated cost model accounts simulated
// device time (see DESIGN.md, substitution table). The model captures the
// effects the paper's performance story depends on:
//
//   * host<->device transfers cost latency + bytes/bandwidth — the paper's
//     two-pass redesign exists precisely to cut CUDA-DClust's
//     2 x (points / blockCount) synchronous copies to a single round trip
//     (§3.2.2), so transfer counts must be visible;
//   * a kernel launch has fixed overhead, so bulk-issued launches beat
//     per-iteration launches;
//   * blocks are list-scheduled onto a fixed number of SMX slots, so one
//     overloaded block (a dense region) stalls the whole kernel — the
//     run-time-variability problem dense boxes attack (§3.2.3).
//
// Work is charged in "ops": one op = one point-distance computation (the
// dominant instruction mix of DBSCAN kernels).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mrscan::gpu {

/// Parameters loosely matching a Tesla K20 on Titan's PCIe-2 bus.
struct DeviceSpec {
  std::string name = "Tesla K20 (simulated)";
  /// SMX units; one resident block executes per unit in the model.
  std::uint32_t sm_count = 13;
  /// Fixed cost per kernel launch.
  double kernel_launch_overhead_s = 8e-6;
  /// Effective host<->device bandwidth (bytes/second) and per-copy latency.
  double pcie_bandwidth_bps = 6.0e9;
  double pcie_latency_s = 15e-6;
  /// Distance computations per second executed by one block's threads.
  double block_op_rate = 1.2e9;
  /// Device global memory (partition sizing checks).
  std::uint64_t global_mem_bytes = 6ULL << 30;
};

struct DeviceStats {
  std::uint64_t h2d_transfers = 0;
  std::uint64_t d2h_transfers = 0;
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_bytes = 0;
  std::uint64_t kernel_launches = 0;
  std::uint64_t blocks_executed = 0;
  std::uint64_t total_ops = 0;
  double kernel_seconds = 0.0;    // simulated in-kernel time
  double transfer_seconds = 0.0;  // simulated copy time

  double device_seconds() const { return kernel_seconds + transfer_seconds; }
};

class VirtualDevice {
 public:
  explicit VirtualDevice(DeviceSpec spec = {});

  const DeviceSpec& spec() const { return spec_; }
  const DeviceStats& stats() const { return stats_; }

  /// Simulated seconds of device + transfer time accumulated so far.
  double device_seconds() const { return stats_.device_seconds(); }

  /// Account a host-to-device copy of `bytes`.
  void copy_to_device(std::uint64_t bytes);

  /// Account a device-to-host copy of `bytes`.
  void copy_to_host(std::uint64_t bytes);

  /// Account one kernel launch. The kernels run on the host and count
  /// their own work; `block_ops[i]` is the ops of block i. Blocks are
  /// greedily scheduled onto sm_count slots in launch order; the kernel
  /// completes when the slowest slot drains, plus launch overhead.
  void account_launch(const std::vector<std::uint64_t>& block_ops);

 private:
  DeviceSpec spec_;
  DeviceStats stats_;
};

}  // namespace mrscan::gpu
