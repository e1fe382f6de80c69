// TCA sub-cluster builder (Sections II-B, III-E).
//
// Assembles N compute nodes, one PEACH2 board each, wires the boards into
// the requested topology — the paper's E/W ring, two rings coupled by the
// South ports, or a 1D/2D/3D torus with one cable ring per dimension —
// programs every chip's routing registers per Fig. 5 (dimension-order for
// tori, compressed to contiguous address-range entries), and instantiates a
// driver per node. A 1D torus is wired, routed, and traced byte-identically
// to the ring.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "calib/calibration.h"
#include "driver/peach2_driver.h"
#include "fabric/fault_plan.h"
#include "fabric/topology.h"
#include "node/compute_node.h"
#include "obs/metrics.h"
#include "peach2/chip.h"
#include "peach2/tca_layout.h"
#include "pcie/link.h"
#include "sim/scheduler.h"

namespace tca::fabric {

struct SubClusterConfig {
  /// Ring, dual ring, or 1D/2D/3D torus (see fabric::TopologySpec). The
  /// default is the paper's 2-node ring.
  TopologySpec spec = TopologySpec::ring(2);
  node::NodeConfig node_config;
  /// Fault injection: bit error rate on the inter-node cables (LCRC
  /// failures trigger data-link-layer replays; data is never lost).
  double cable_bit_error_rate = 0;
  /// Deterministic fault schedule applied at construction (cable flaps, BER
  /// bursts, stuck doorbells). Event times are relative to construction.
  FaultPlan fault_plan;
  /// Route failover: when the NIOS firmware services a cable-down event,
  /// rewrite the address-range routing registers (the Fig. 5 mechanism) so
  /// traffic steers the other way around the affected ring — the whole ring
  /// for kRing, the dead cable's dimension ring for a torus — and restore
  /// the shortest-path tables on link-up. Ring and torus topologies only.
  /// When every usable direction is dead (a full-ring outage in that
  /// dimension) routes are left alone and traffic is held in the replay
  /// buffers, exactly as with failover disabled.
  bool enable_failover = true;
};

class SubCluster {
 public:
  SubCluster(sim::Scheduler& sched, const SubClusterConfig& config);

  // Fault-plan events and NIOS link listeners capture `this`.
  SubCluster(const SubCluster&) = delete;
  SubCluster& operator=(const SubCluster&) = delete;

  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(nodes_.size());
  }
  [[nodiscard]] const peach2::TcaLayout& layout() const { return layout_; }
  [[nodiscard]] const SubClusterConfig& config() const { return cfg_; }
  /// The topology this fabric was built as.
  [[nodiscard]] const TopologySpec& topology() const { return cfg_.spec; }

  [[nodiscard]] node::ComputeNode& node(std::uint32_t i) {
    return *nodes_.at(i);
  }
  [[nodiscard]] peach2::Peach2Chip& chip(std::uint32_t i) {
    return *chips_.at(i);
  }
  [[nodiscard]] driver::Peach2Driver& driver(std::uint32_t i) {
    return *drivers_.at(i);
  }

  /// Global TCA addresses of targets inside node `i`.
  [[nodiscard]] std::uint64_t global_host(std::uint32_t i,
                                          std::uint64_t offset) const {
    return layout_.encode(i, peach2::TcaTarget::kHost, offset);
  }
  [[nodiscard]] std::uint64_t global_gpu(std::uint32_t i, int gpu,
                                         std::uint64_t offset) const {
    return layout_.encode(i,
                          gpu == 0 ? peach2::TcaTarget::kGpu0
                                   : peach2::TcaTarget::kGpu1,
                          offset);
  }

  /// Hop count from node `from` to node `to` as the routing tables steer
  /// it: shortest ring direction for rings, the per-dimension ring
  /// distances summed for tori (dimension-order routing).
  [[nodiscard]] std::uint32_t hops(std::uint32_t from,
                                   std::uint32_t to) const {
    return cfg_.spec.hops(from, to);
  }

  /// Fault injection: takes every inter-node cable down (or back up).
  /// Host-to-chip slot links are untouched — the Section V property that
  /// distinguishes PEACH2 from NTB-based fabrics.
  void set_fabric_up(bool up) {
    for (auto& cable : cables_) cable->set_up(up);
  }

  /// Exports every hardware counter in the fabric into `reg` under
  /// hierarchical names: per-cable link stats (`pcie.cable.<a>-<b>.fwd.*`,
  /// forward = end_a->end_b), per-node chip/DMAC/driver/CPU/host/GPU stats
  /// (`node<i>.peach2.dmac.ch<c>.*`, ...), and fabric-level roll-ups
  /// (`fabric.*`). This is the structured replacement for the old printf
  /// stats dump; serialize with MetricRegistry::to_json().
  void export_metrics(obs::MetricRegistry& reg) const;

  /// Number of inter-node cables (dimension rings + optional South
  /// cross-links).
  [[nodiscard]] std::size_t cable_count() const { return cables_.size(); }
  /// Cable `k` and the (from, to) node pair it connects; end_a is `from`.
  [[nodiscard]] const pcie::PcieLink& cable(CableId k) const {
    return *cables_.at(k);
  }
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> cable_nodes(
      CableId k) const {
    return cable_ends_.at(k);
  }

  /// Firmware's view of cable `k` (false once a NIOS has serviced its down
  /// event; the routing tables reflect this view, not the wire state).
  [[nodiscard]] bool cable_usable(CableId k) const {
    return cable_usable_.at(k);
  }

  /// Reroute events: failovers_ counts down-transitions that changed at
  /// least one routing entry; failbacks_ counts up-transitions that
  /// restored entries. Zero unless enable_failover and the topology is a
  /// ring or torus.
  [[nodiscard]] std::uint64_t failovers() const { return failovers_; }
  [[nodiscard]] std::uint64_t failbacks() const { return failbacks_; }

  /// TLPs abandoned by failovers: traffic held for a dead cable (link
  /// replay buffers plus the endpoint chips' egress FIFOs) that a reroute
  /// steered around. Discarding it is what prevents zombie replays — held
  /// TLPs retransmitting after retrain into staging buffers the driver's
  /// retry has since recycled. Exported as `fabric.abandoned_tlps`.
  [[nodiscard]] std::uint64_t abandoned_tlps() const;

  /// DMA chains aborted by route changes. The PEARL delivery notification
  /// tags only the final TLP of a descriptor, so its arrival proves full
  /// delivery only while the whole descriptor followed one FIFO path. A
  /// reroute voids that premise — the tail can arrive via the new path
  /// while earlier TLPs sit stranded on the dead one — so every chain in
  /// flight when routes are rewritten is aborted and left to the driver
  /// retry layer to redeliver whole. Exported as `fabric.chain_quiesces`.
  [[nodiscard]] std::uint64_t chain_quiesces() const {
    return chain_quiesces_;
  }

  /// Route registers whose port disagrees with what the failover logic
  /// would program under the current cable_usable_ view. Nonzero means a
  /// reroute was missed or half-applied — the system invariant the chaos
  /// campaigns assert after every failover/failback (exported as
  /// `fabric.route_mismatches`). Always 0 for the dual ring (no records).
  [[nodiscard]] std::uint32_t route_mismatches() const;
  [[nodiscard]] bool routes_consistent() const {
    return route_mismatches() == 0;
  }

  /// Whether dimension-order routing can steer traffic from `from` to `to`
  /// under the firmware's current cable view: walking dimensions highest
  /// first, each differing coordinate needs at least one fully usable arc
  /// (plus or minus) around that dimension's ring. Both arcs dead in any
  /// dimension is a genuine partition for this fabric — the address-range
  /// route registers cannot express a detour through another dimension, so
  /// the API surfaces such destinations as kUnreachable instead of letting
  /// every transfer burn its full deadline. Cables the NIOS has not
  /// serviced yet still count as usable (the tables reflect the firmware
  /// view, not the wire). Dual rings carry no failover state and always
  /// report reachable.
  [[nodiscard]] bool reachable(std::uint32_t from, std::uint32_t to) const;

 private:
  /// One programmed route register and the torus range it steers: node
  /// `node`'s entry `entry_index` covers every destination whose dimension
  /// `dim` coordinate is `target` (higher dims equal to the node's own,
  /// lower dims arbitrary). Failover recomputes ports from these records —
  /// the ranges themselves never change shape after construction.
  struct RouteRecord {
    std::uint32_t node;
    std::uint32_t dim;
    std::uint32_t target;
    std::size_t entry_index;
  };

  void wire_ring(std::uint32_t first, std::uint32_t count);
  /// Wires one cable ring per torus dimension (dimension 0 first; for a 1D
  /// torus/ring this produces the exact cable order of wire_ring(0, n)).
  void wire_torus();
  void add_cable(std::uint32_t from, std::uint32_t to, std::uint32_t dim,
                 peach2::PortId from_port, peach2::PortId to_port);
  /// Programs dimension-order routes for ring/torus topologies and records
  /// a RouteRecord per entry.
  void program_torus_routes();
  void program_ring_routes(std::uint32_t first, std::uint32_t count);
  void program_dual_ring_routes();

  /// Installs the NIOS link listeners that drive route failover.
  void arm_failover();
  /// Discards traffic held for `cable` after a failover rerouted around it
  /// (both link directions' queues and the endpoint chips' facing egress
  /// FIFOs). Redelivery belongs to the driver retry layer from here on.
  void abandon_dead_path(CableId cable);
  /// Aborts every busy DMA engine in the sub-cluster after a route change
  /// (see chain_quiesces() for why a reroute invalidates in-flight chains).
  void quiesce_in_flight_chains();
  /// Schedules every FaultPlan event.
  void schedule_faults();
  /// Rewrites every recorded route honoring cable_usable_; returns the
  /// number of route entries whose port changed. Only ports within the
  /// affected dimension's rings ever flip — dimension-order ranges are
  /// direction-agnostic by construction. Every record is evaluated against
  /// its own dimension ring, so concurrent dead cables in different
  /// dimensions each fail over independently.
  std::uint32_t reprogram_routes();
  /// Whether each arc (plus, minus) of the dimension-`dim` ring through
  /// `node`, from the node's own coordinate to `target`, is free of
  /// firmware-dead cables.
  [[nodiscard]] std::pair<bool, bool> arcs_clean(std::uint32_t node,
                                                 std::uint32_t dim,
                                                 std::uint32_t target) const;
  /// Port the dimension-order tables should steer `r` through given the
  /// current cable_usable_ view: the clean direction when exactly one arc
  /// is clean, shortest otherwise (both-dirty keeps shortest so traffic is
  /// held in the replay buffer, the pre-failover behavior).
  [[nodiscard]] peach2::PortId expected_port(const RouteRecord& r) const;
  /// Cable carrying traffic from the node at coordinate `coord` toward
  /// coordinate + 1 inside the dimension-`dim` ring through node `node`.
  [[nodiscard]] CableId ring_cable_at(std::uint32_t node, std::uint32_t dim,
                                      std::uint32_t coord) const;

  /// The scheduler the sub-cluster is built on: fault events, failover
  /// trace instants and log lines read its clock.
  sim::Scheduler& sched_;
  SubClusterConfig cfg_;
  peach2::TcaLayout layout_;
  std::vector<std::unique_ptr<node::ComputeNode>> nodes_;
  std::vector<std::unique_ptr<peach2::Peach2Chip>> chips_;
  std::vector<std::unique_ptr<driver::Peach2Driver>> drivers_;
  std::vector<std::unique_ptr<pcie::PcieLink>> cables_;
  /// (from, to) node ids per cable, parallel to cables_; end_a is `from`.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> cable_ends_;
  /// Torus dimension each cable runs along, parallel to cables_.
  std::vector<std::uint32_t> cable_dim_;
  /// Per node and dimension: the cable on the node's plus side (whose
  /// end_a is this node). kNoCable where unwired.
  static constexpr CableId kNoCable = static_cast<CableId>(-1);
  std::vector<std::array<CableId, TopologySpec::kMaxDims>> plus_cable_;
  std::vector<std::array<CableId, TopologySpec::kMaxDims>> minus_cable_;

  /// Dimension-order route records for failover rewrites (ring/torus).
  std::vector<RouteRecord> route_records_;

  /// Failover state: firmware-serviced view of each inter-node cable.
  std::vector<bool> cable_usable_;
  std::uint64_t failovers_ = 0;
  std::uint64_t failbacks_ = 0;
  std::uint64_t chain_quiesces_ = 0;

  /// FaultPlan window nesting: a resource stays faulted until every
  /// overlapping window has closed.
  std::vector<int> cable_down_depth_;
  std::vector<int> cable_ber_depth_;
  std::vector<int> dmac_stuck_depth_;  // node * kDmaChannels + channel
};

}  // namespace tca::fabric
