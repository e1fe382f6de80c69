// The PEACH2 chip (Section III).
//
// Four PCIe Gen2 x8 ports: North (always the host), East/West (ring,
// EP/RC roles fixed), South (ring coupling, role selectable). A per-input
// store-and-forward engine routes TLPs by address-range compare only
// (Section III-E); the sole address *conversion* happens at Port N, where
// global TCA addresses are rewritten into the local node's PCIe space.
// The chip further contains: internal packet RAM (+ board DRAM), a chaining
// DMA controller (peach2/dmac.h), a register file driven over BAR0, a PEARL
// delivery-notification mailbox, and a NIOS management stub that tracks
// per-port link status.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "calib/calibration.h"
#include "memory/dram.h"
#include "pcie/link.h"
#include "peach2/routing.h"
#include "peach2/tca_layout.h"
#include "sim/ring.h"
#include "sim/scheduler.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace tca::peach2 {

class DmaController;
class NiosController;

struct Peach2Config {
  pcie::DeviceId device_id = 0;
  std::uint32_t node_id = 0;
  TcaLayout layout;

  /// BAR0 (register window) base in the node's bus-address space.
  std::uint64_t reg_base = 0;

  /// Local bus addresses the N-port conversion rewrites global TCA
  /// addresses into (Section III-E: "the base address of the PEACH2 chip
  /// and the address offset for the specified device are added ...").
  std::uint64_t local_gpu0_base = 0;
  std::uint64_t local_gpu1_base = 0;
  std::uint64_t local_host_base = 0;

  /// Per-output-port egress FIFO capacity. Deliberately small: the DMA
  /// engine's descriptor pacing emerges from egress backpressure tracking
  /// the link drain rate.
  std::uint64_t egress_queue_bytes = 1024;
};

class Peach2Chip : public pcie::TlpSink, public pcie::CommitNotifier {
 public:
  Peach2Chip(sim::Scheduler& sched, const Peach2Config& config);
  ~Peach2Chip() override;

  Peach2Chip(const Peach2Chip&) = delete;
  Peach2Chip& operator=(const Peach2Chip&) = delete;

  /// Attaches a physical port. North goes to the host slot; E/W/S to PCIe
  /// external cables. Marks the port's link status up (NIOS view).
  void attach_port(PortId port, pcie::LinkPort& link);

  [[nodiscard]] pcie::DeviceId device_id() const { return cfg_.device_id; }
  [[nodiscard]] std::uint32_t node_id() const { return cfg_.node_id; }
  [[nodiscard]] const TcaLayout& layout() const { return cfg_.layout; }
  [[nodiscard]] const Peach2Config& config() const { return cfg_; }

  [[nodiscard]] RoutingTable& routing() { return routing_; }
  [[nodiscard]] const RoutingTable& routing() const { return routing_; }
  /// Channel 0 — the engine the paper's prototype exposes.
  [[nodiscard]] DmaController& dmac() { return *dmac_channels_[0]; }
  /// The production board's multi-channel DMAC.
  [[nodiscard]] DmaController& dmac(int channel) {
    return *dmac_channels_.at(static_cast<std::size_t>(channel));
  }
  [[nodiscard]] mem::Dram& internal_ram() { return internal_ram_; }
  [[nodiscard]] mem::Dram& board_dram() { return board_dram_; }

  /// Interrupt line toward the host (wired to the driver). The handler
  /// receives the DMA channel that completed.
  void set_interrupt_handler(std::function<void(int)> handler) {
    interrupt_ = std::move(handler);
  }
  void raise_interrupt(int channel) {
    if (interrupt_) interrupt_(channel);
  }

  /// Error interrupt line (AER-flavored). The handler receives the newly
  /// raised, unmasked kErrStatus bits. Status is sticky until the driver
  /// writes 1s to kErrAck; masked bits still latch but do not interrupt.
  void set_error_handler(std::function<void(std::uint64_t)> handler) {
    error_handler_ = std::move(handler);
  }
  /// Latches `bits` into the error-status register and fires the error
  /// interrupt for any unmasked ones.
  void raise_error(std::uint64_t bits);

  /// Global address of this chip's internal block (mailbox at offset 0,
  /// internal RAM window right after it).
  [[nodiscard]] std::uint64_t internal_block_base() const {
    return cfg_.layout.encode(cfg_.node_id, TcaTarget::kInternal, 0);
  }
  /// Byte offset of the internal RAM inside the internal block (the first
  /// page is the mailbox / register shadow).
  static constexpr std::uint64_t kInternalRamOffset = 4096;

  /// Injects a DMAC-originated TLP into the routing fabric; suspends on
  /// egress backpressure. This is the DMA engine's only way to the wire.
  /// If `aborted` is non-null, the injection gives up (dropping the TLP)
  /// once it observes *aborted == true — the DMAC's cooperative chain-abort
  /// escape hatch from a backpressure wait that will never resolve.
  sim::Task<> inject(pcie::TlpPtr tlp, const bool* aborted = nullptr);

  /// Port-N address conversion: global TCA location -> local bus address.
  /// Exposed for the DMAC, which issues local MRds in bus addresses.
  [[nodiscard]] std::optional<std::uint64_t> convert_to_local(
      const TcaLocation& loc) const;

  /// Output port a DMAC injection to `addr` would take (nullopt: internal
  /// target or unroutable).
  [[nodiscard]] std::optional<PortId> egress_port_for(
      std::uint64_t addr) const;

  /// Suspends until the egress FIFO of `out` has fully drained onto the
  /// link. The chaining DMA engine serializes descriptors on this: the next
  /// descriptor is not decoded until the previous one's data has left the
  /// chip, which is what keeps measured chained-write bandwidth at the
  /// paper's 3.3 GB/s rather than the 3.66 GB/s wire peak. A non-null
  /// `aborted` flag lets a chain abort bail out of a drain that cannot
  /// complete (e.g. the port's link is dead and holding its bytes).
  sim::Task<> drain_egress(PortId out, const bool* aborted = nullptr);

  /// Wakes every coroutine blocked on egress backpressure so it can observe
  /// a freshly set abort flag. Called by the DMAC on chain abort.
  void pulse_egress_waiters();

  /// Fault recovery: discards every TLP parked in `port`'s egress FIFO and
  /// any still in the route pipeline toward it. The fabric calls this when
  /// a failover reroutes traffic away from the cable behind `port`: the
  /// parked TLPs were routed with the pre-failover tables and would
  /// otherwise transmit on retrain as stale duplicates of data the driver's
  /// retry has since redelivered the other way. Their chains never see the
  /// remote acks, so the watchdog/retry layer owns redelivery.
  void abandon_egress(PortId port);

  // TlpSink.
  void on_tlp(pcie::TlpPtr tlp, pcie::LinkPort& port) override;

  // CommitNotifier: called by the destination memory endpoint when a write
  // this chip delivered into its node actually commits. Emits the PEARL
  // delivery notification back to the source chip's mailbox.
  void on_write_commit(std::uint64_t ack_address, std::uint8_t tag) override;

  // --- NIOS management processor --------------------------------------------
  /// True if a link is attached to the port (cabling).
  [[nodiscard]] bool link_up(PortId port) const {
    return ports_[static_cast<std::size_t>(port)] != nullptr;
  }
  /// True if the port is attached AND the link trained/operational (fault
  /// injection can take a link down without uncabling it).
  [[nodiscard]] bool port_operational(PortId port) const {
    const auto* p = ports_[static_cast<std::size_t>(port)];
    return p != nullptr && p->link_up();
  }
  [[nodiscard]] NiosController& nios() { return *nios_; }

  // --- Statistics ------------------------------------------------------------
  [[nodiscard]] std::uint64_t forwarded_tlps() const { return forwarded_; }
  [[nodiscard]] std::uint64_t dropped_tlps() const { return dropped_; }
  [[nodiscard]] std::uint64_t acks_sent() const { return acks_sent_; }
  [[nodiscard]] std::uint64_t mailbox_count() const { return mailbox_count_; }
  /// Forwards broken out by output port (router utilization per direction).
  [[nodiscard]] std::uint64_t port_forwards(PortId port) const {
    return port_forwards_[static_cast<std::size_t>(port)];
  }
  /// Drops specifically due to address-decode misses (no route entry matched
  /// or the decided port is uncabled) — a subset of dropped_tlps().
  [[nodiscard]] std::uint64_t unroutable_tlps() const { return unroutable_; }
  /// TLPs discarded by abandon_egress() — traffic parked for a dead port
  /// that a route failover steered around. Not part of dropped_tlps(): an
  /// abandonment is an accounted recovery action, not a routing failure.
  [[nodiscard]] std::uint64_t abandoned_tlps() const { return abandoned_; }
  /// Error-interrupt assertions toward the driver (unmasked raises).
  [[nodiscard]] std::uint64_t error_interrupts() const { return error_irqs_; }

  // --- Register file (shared by the MMIO path and direct test access) ------
  [[nodiscard]] std::uint64_t read_register(std::uint64_t offset) const;
  void write_register(std::uint64_t offset, std::uint64_t value);

 private:
  struct Egress {
    pcie::LinkPort* port = nullptr;
    sim::Ring<pcie::TlpPtr> queue;
    std::uint64_t reserved_bytes = 0;
    std::unique_ptr<sim::Trigger> space;
    /// Bumped by abandon_egress(). TLPs in the route-pipeline delay carry
    /// the generation they were admitted under; a mismatch on arrival means
    /// a failover flushed this port while they were in flight through the
    /// pipeline, and they are discarded instead of parked. A stale
    /// generation could only match again after 2^32 flushes within one
    /// pipeline delay.
    std::uint32_t generation = 0;
  };
  struct Ingress {
    sim::Ring<pcie::TlpPtr> queue;
    pcie::LinkPort* link = nullptr;
    std::unique_ptr<sim::Trigger> pending;
    sim::Task<> engine;
  };

  sim::Task<> forwarding_engine(PortId in_port);

  /// Routing decision for a TCA-window (or local-bus) address.
  /// Returns the output port, or nullopt for "drop".
  [[nodiscard]] std::optional<PortId> decide(std::uint64_t addr) const;

  void handle_register_tlp(pcie::TlpPtr tlp);
  void handle_internal_tlp(pcie::TlpPtr tlp);
  /// True when `out`'s egress FIFO can reserve `wire` more bytes now.
  [[nodiscard]] bool egress_has_room(PortId out, std::uint64_t wire) const;
  /// Reserves the TLP's bytes in `out`'s egress FIFO and files its arrival
  /// there after the rest of the route pipeline. Needs egress_has_room.
  void admit_egress(PortId out, pcie::TlpPtr tlp);
  /// admit_egress once the FIFO has room, waiting out backpressure first.
  sim::Task<> enqueue_egress(PortId out, pcie::TlpPtr tlp);
  void pump_egress(PortId out);

  sim::Scheduler& sched_;
  Peach2Config cfg_;
  RoutingTable routing_;
  mem::Dram internal_ram_;
  mem::Dram board_dram_;
  std::array<pcie::LinkPort*, kPortCount> ports_{};
  std::array<Egress, kPortCount> egress_;
  std::array<Ingress, kPortCount> ingress_;
  std::function<void(int)> interrupt_;
  std::function<void(std::uint64_t)> error_handler_;
  std::uint64_t err_status_ = 0;
  std::uint64_t err_mask_ = 0;
  std::array<std::unique_ptr<DmaController>, 4> dmac_channels_;
  std::unique_ptr<NiosController> nios_;

  std::uint64_t forwarded_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t mailbox_count_ = 0;
  std::array<std::uint64_t, kPortCount> port_forwards_{};
  std::uint64_t unroutable_ = 0;
  std::uint64_t abandoned_ = 0;
  std::uint64_t error_irqs_ = 0;
};

}  // namespace tca::peach2
