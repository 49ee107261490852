// Simulated MRNet process network.
//
// The real system runs one process per Titan node connected in the tree;
// here the processes are logical and a discrete-event scheduler advances a
// virtual clock using the interconnect cost model, while the actual filter
// code (histogram merge, cluster merge, id routing) executes for real. The
// semantics — per-level upstream reduction through filters, downstream
// multicast/scatter — are MRNet's (§3, [25]).
//
// Timing model per message: sender_done + latency + bytes / bandwidth,
// plus a per-child handling overhead at the parent; a parent's filter runs
// once all children have arrived. Filter compute time is charged as
// filter_ops / cpu_op_rate (the filter reports its op count), keeping the
// clock deterministic across runs and machines.
//
// Fault handling. When a fault::FaultInjector is attached, the upstream
// reduction tolerates the injected faults:
//   * every transmission arms a per-message ack timer against the virtual
//     clock; a lost packet (injected drop) is retransmitted after
//     exponential backoff, bounded by the retry budget — exhausting it
//     raises a clean NetworkError instead of hanging;
//   * a killed leaf never sends; its parent's watchdog times out and the
//     recovery handler re-reads the leaf's partition (from the PFS-backed
//     partition file) on a sibling and replays the leaf's packet, with the
//     full detection + re-read + re-cluster time charged to the clock;
//   * arrival-order jitter (reorder injection) only perturbs timing —
//     packets are slotted by child position, so filter inputs, and hence
//     the clustering, are unchanged.
// All fault handling is confined to reduce(); downstream scatter is not
// fault-injected (the paper's failure story is about the long upstream
// cluster/merge phase).
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "mrnet/packet.hpp"
#include "mrnet/topology.hpp"
#include "obs/obs.hpp"
#include "sim/titan.hpp"

namespace mrscan::mrnet {

/// One leaf-failure recovery, as recorded in NetworkStats.
struct RecoveryEvent {
  std::uint32_t leaf_rank = 0;
  /// Leaf rank that re-read and re-clustered the dead leaf's partition
  /// (the dead rank itself when it had no live sibling).
  std::uint32_t recovered_by = 0;
  double detected_at = 0.0;
  double completed_at = 0.0;
};

struct NetworkStats {
  std::uint64_t packets_up = 0;
  std::uint64_t packets_down = 0;
  std::uint64_t bytes_up = 0;
  std::uint64_t bytes_down = 0;
  std::size_t max_packet_bytes = 0;
  /// Virtual completion time of the last collective operation.
  double last_op_seconds = 0.0;
  /// Sum of virtual times across all collective ops so far.
  double total_seconds = 0.0;

  /// Upstream deliveries that disarmed a pending ack timer (delivery
  /// doubles as the ack in the retry protocol; zero without an injector
  /// because no timers are armed then).
  std::uint64_t acks = 0;

  // -- Fault handling (all zero on a fault-free run) --
  /// Upstream transmissions lost to injected drops.
  std::uint64_t packets_dropped = 0;
  /// Retransmissions performed (bounded by RetryPolicy::max_attempts).
  std::uint64_t retries = 0;
  /// Timer expiries: ack timeouts plus leaf-death watchdog firings.
  std::uint64_t timeouts = 0;
  /// Packets whose arrival was jittered by reorder injection.
  std::uint64_t reorders_injected = 0;
  /// Duplicate deliveries discarded at a parent (a retransmit racing its
  /// original); benign, counted for visibility.
  std::uint64_t duplicates_discarded = 0;
  /// Leaves recovered via partition re-read.
  std::uint64_t leaves_recovered = 0;
  /// Total virtual seconds spent re-reading and re-clustering dead
  /// leaves' partitions (also included in last_op_seconds).
  double recovery_seconds = 0.0;
  std::vector<RecoveryEvent> recoveries;
};

/// A collective operation failed mid-round: a filter/router threw, or a
/// message exhausted its retry budget. Carries the node and tree level so
/// operators can locate the failure without a debugger.
class NetworkError : public std::runtime_error {
 public:
  NetworkError(const std::string& what, std::uint32_t node, std::size_t level)
      : std::runtime_error(what), node_(node), level_(level) {}

  std::uint32_t node() const { return node_; }
  std::size_t level() const { return level_; }

 private:
  std::uint32_t node_;
  std::size_t level_;
};

/// Mirror a NetworkStats block into the metrics registry under
/// "net.<domain>.*" (counters for packet/byte/fault totals, gauges for
/// the timing fields). The registry copy is what the exporters and
/// MrScanResult read — NetworkStats stays the live accumulator.
void record_network_stats(obs::Recorder& recorder, const std::string& domain,
                          const NetworkStats& stats);

class Network {
 public:
  /// An upstream filter: merges child packets at `node`; sets `ops` to its
  /// compute cost in op units (point-distance-scale work).
  using Filter = std::function<Packet(std::uint32_t node,
                                      std::vector<Packet> children,
                                      std::uint64_t& ops)>;

  /// A downstream router: given the packet arriving at `node`, produce the
  /// packet for `child`.
  using Router = std::function<Packet(std::uint32_t node,
                                      const Packet& incoming,
                                      std::uint32_t child)>;

  /// Rebuilds a dead leaf's upstream packet by re-reading its partition
  /// on a sibling; sets `recovery_cost_s` to the virtual seconds the
  /// re-read + re-cluster took (charged to the clock before the packet
  /// re-enters the tree). `detected_at_s` is the virtual time the
  /// watchdog fired, offset by the network's observability sim offset —
  /// handlers use it to place recovery sub-spans (partition re-read,
  /// re-cluster) on the global virtual timeline.
  using RecoveryHandler = std::function<Packet(
      std::uint32_t leaf_rank, double detected_at_s,
      double& recovery_cost_s)>;

  Network(Topology topology, sim::InterconnectParams params,
          double cpu_op_rate = 2.0e8);

  const Topology& topology() const { return topology_; }
  const NetworkStats& stats() const { return stats_; }

  /// Attach a fault injector (non-owning; nullptr detaches). Faults apply
  /// to subsequent reduce() calls only.
  void set_fault_injector(const fault::FaultInjector* injector) {
    injector_ = injector;
  }

  /// Handler invoked when a leaf-death watchdog fires. Required when the
  /// attached plan kills leaves.
  void set_recovery_handler(RecoveryHandler handler) {
    recovery_ = std::move(handler);
  }

  /// Attach the per-run observability recorder (non-owning; nullptr
  /// detaches). When tracing is enabled, collective ops emit sim-clock
  /// spans — per-node filter compute, retransmits, timeouts, recoveries —
  /// shifted by `sim_offset` so they land on the run's global virtual
  /// timeline. Pure accounting, never control flow: attaching a recorder
  /// cannot change packets, ordering, or the clock.
  void set_observer(obs::Recorder* recorder, double sim_offset = 0.0) {
    obs_ = recorder;
    obs_sim_offset_ = sim_offset;
  }

  /// Upstream reduction: leaf i contributes leaf_packets[i] at virtual
  /// time leaf_ready[i] (empty = all zero); filters run level by level;
  /// returns the root's packet. Runs the event simulation to completion.
  /// Throws NetworkError (stats left consistent: packet counters reflect
  /// actual transmissions and the clock time of the failure is recorded)
  /// when a filter throws or a message exhausts its retry budget.
  Packet reduce(std::vector<Packet> leaf_packets, const Filter& filter,
                const std::vector<double>& leaf_ready = {});

  /// Downstream scatter from the root; `deliver` fires at each leaf with
  /// the routed packet. Returns the virtual time at which the last leaf
  /// received its packet. Router/deliver exceptions surface as
  /// NetworkError with node context.
  double scatter(const Packet& root_packet, const Router& router,
                 const std::function<void(std::uint32_t leaf_rank,
                                          const Packet&)>& deliver);

  /// Broadcast the same packet to all leaves (a Router special case).
  double multicast(const Packet& root_packet,
                   const std::function<void(std::uint32_t leaf_rank,
                                            const Packet&)>& deliver);

 private:
  double link_delay(std::size_t bytes) const;

  /// Leaf rank that takes over a dead leaf's partition: the first live
  /// sibling leaf under the same parent, else the dead rank itself.
  std::uint32_t recovery_sibling(std::uint32_t dead_leaf) const;

  /// True when span tracing is live for this network.
  bool tracing() const { return obs_ != nullptr && obs_->tracing(); }

  Topology topology_;
  sim::InterconnectParams params_;
  double cpu_op_rate_;
  NetworkStats stats_;
  const fault::FaultInjector* injector_ = nullptr;
  RecoveryHandler recovery_;
  obs::Recorder* obs_ = nullptr;
  double obs_sim_offset_ = 0.0;
};

}  // namespace mrscan::mrnet
