// Point-to-point PCIe link model.
//
// A PcieLink is full duplex: each direction has an independent serializer
// (one TLP on the wire at a time, occupying wire_bytes * ps_per_byte) and a
// credit pool modeling the receiver buffer. A TLP starts transmission only
// when the peer has buffer space for it; the receiving sink returns credits
// once it has consumed or forwarded the TLP, which is how backpressure
// propagates hop by hop through the fabric (e.g. a slow GPU BAR read path
// stalls the PEACH2 DMA engine several links upstream).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/error.h"
#include "common/rng.h"
#include "pcie/tlp.h"
#include "sim/ring.h"
#include "sim/scheduler.h"

namespace tca::pcie {

/// Physical link parameters.
struct LinkConfig {
  int gen = 2;    ///< PCIe generation: 1, 2 (8b/10b) or 3 (128b/130b)
  int lanes = 8;  ///< x1..x16
  TimePs propagation_ps = 0;  ///< cable / trace flight time
  std::uint64_t rx_buffer_bytes = 16 * 1024;  ///< per-direction credit pool
  std::uint64_t tx_queue_bytes = 16 * 1024;   ///< per-direction egress queue

  /// When > 0, overrides the gen/lanes rate. Used for non-PCIe transports
  /// modeled with the same machinery (QPI peer path, InfiniBand).
  double custom_bytes_per_sec = 0;

  /// Optional identity for tracing (chrome://tracing track name). Links
  /// without a name produce no trace events.
  std::string name;

  /// Bit error rate for fault injection. A corrupted TLP fails its LCRC at
  /// the receiver and is retransmitted after kReplayDelayPs — the
  /// data-link-layer reliability PEARL builds on. 0 disables (default).
  double bit_error_rate = 0;
  /// Seed for the deterministic error process.
  std::uint64_t error_seed = 0x5EED;

  /// Raw post-encoding byte rate (e.g. Gen2 x8 = 4.0 GB/s).
  [[nodiscard]] double raw_bytes_per_sec() const;

  /// Picoseconds to place one byte on the wire.
  [[nodiscard]] double ps_per_byte() const {
    return 1e12 / raw_bytes_per_sec();
  }
};

class LinkPort;

/// Receiver interface. The sink takes the TLP's handle and MUST call
/// `port.release_rx(wire_bytes)` once the TLP has been consumed or forwarded;
/// until then the sender's credits stay held (backpressure).
class TlpSink {
 public:
  virtual ~TlpSink() = default;
  virtual void on_tlp(TlpPtr tlp, LinkPort& port) = 0;
};

/// One endpoint of a PcieLink. Exposes the transmit queue toward the peer
/// and receive-credit management for traffic from the peer.
class LinkPort {
 public:
  LinkPort(const LinkPort&) = delete;
  LinkPort& operator=(const LinkPort&) = delete;

  /// True if the egress queue can accept this TLP now.
  [[nodiscard]] bool can_send(const Tlp& tlp) const;

  /// Enqueues a TLP for transmission. Caller must check can_send() first.
  void send(TlpPtr tlp);

  /// Registers the (single) callback invoked whenever egress space frees.
  void set_tx_ready(std::function<void()> cb) { tx_ready_ = std::move(cb); }

  /// Registers the receiver for inbound TLPs.
  void set_sink(TlpSink* sink) { sink_ = sink; }

  /// Returns receive credits after consuming/forwarding an inbound TLP.
  // tca-protocol: releases(rx-credit)
  void release_rx(std::uint64_t wire_bytes);

  /// True when nothing is queued and the wire is idle (all accepted TLPs
  /// fully serialized).
  [[nodiscard]] bool tx_idle() const { return tx_queue_.empty() && !wire_busy_; }

  /// Link operational state (both directions share it).
  [[nodiscard]] bool link_up() const { return *link_up_; }

  /// Registers the (single) callback invoked on link up/down transitions
  /// (LTSSM surprise-down / retrain notification toward the device).
  void set_link_state_callback(std::function<void(bool)> cb) {
    link_state_cb_ = std::move(cb);
  }

  /// Registers the (single) callback invoked when the same TLP has been
  /// replayed calib::kReplayThreshold consecutive times — the REPLAY_NUM
  /// escalation an AER-capable device surfaces as a correctable-error
  /// interrupt before the LTSSM forces a retrain.
  void set_replay_threshold_callback(std::function<void()> cb) {
    replay_threshold_cb_ = std::move(cb);
  }

  /// Fault recovery: discards every TLP queued for transmission, including
  /// surprise-down returns parked in the replay buffer. The fabric calls
  /// this when a failover has rerouted traffic away from this cable: after
  /// the reroute, retransmitting the held TLPs on retrain would deliver
  /// stale duplicates into buffers the transfer's retry has since recycled,
  /// so the data-link layer gives them up (DL_Down) and redelivery belongs
  /// to the driver's retry layer. Returns the number of TLPs discarded,
  /// which is also accumulated into abandoned_tlps().
  std::size_t abandon_queued();

  /// Statistics ------------------------------------------------------------
  [[nodiscard]] std::uint64_t tlps_sent() const { return tlps_sent_; }
  [[nodiscard]] std::uint64_t wire_bytes_sent() const { return wire_sent_; }
  [[nodiscard]] std::uint64_t payload_bytes_sent() const { return data_sent_; }
  /// LCRC-failed transmissions retried from the replay buffer.
  [[nodiscard]] std::uint64_t replays() const { return replays_; }
  /// TLPs that were in flight, or held for LCRC replay, when the link went
  /// down. Each one is returned to the replay buffer (front of the egress
  /// queue, in transmit order) for retransmission after retrain, so data is
  /// delayed, not lost — but the drop is counted and traced rather than
  /// silently absorbed. If a failover reroutes away from this cable before
  /// retrain, abandon_queued() discards them instead.
  [[nodiscard]] std::uint64_t dropped_tlps() const { return dropped_tlps_; }
  /// TLPs discarded by abandon_queued() — held traffic a route failover
  /// declared undeliverable on this path.
  [[nodiscard]] std::uint64_t abandoned_tlps() const {
    return abandoned_tlps_;
  }
  /// Simulated time this direction spent head-of-line blocked waiting for
  /// receiver credits — the per-link backpressure figure the APEnet+ paper
  /// tunes against.
  [[nodiscard]] TimePs credit_stall_ps() const { return credit_stall_ps_; }
  [[nodiscard]] const LinkConfig& config() const { return *cfg_; }

 private:
  friend class PcieLink;
  LinkPort(sim::Scheduler& sched, const LinkConfig& cfg)
      : sched_(&sched),
        cfg_(&cfg),
        ps_per_byte_(cfg.ps_per_byte()),
        rx_free_(cfg.rx_buffer_bytes) {}

  void try_transmit();
  void wire_done();
  void replay_done();
  /// Returns a transmitted TLP to the head of the egress queue, with the
  /// receiver credits it reserved.
  void requeue(TlpPtr tlp);
  void deliver_front();
  void deliver(TlpPtr tlp);
  void on_link_down();

  /// A TLP past the serializer but not yet at the peer (propagation delay).
  /// On a zero-propagation link `event` is also the wire-done event.
  struct InFlight {
    sim::Scheduler::EventId event;
    TlpPtr tlp;
  };

  sim::Scheduler* sched_;
  const LinkConfig* cfg_;
  double ps_per_byte_;  ///< the config's rate, computed once
  LinkPort* peer_ = nullptr;
  const bool* link_up_ = nullptr;
  std::function<void(bool)> link_state_cb_;

  // Transmit side.
  sim::Ring<TlpPtr> tx_queue_;
  std::uint64_t tx_queued_ = 0;
  bool wire_busy_ = false;
  std::function<void()> tx_ready_;
  std::function<void()> replay_threshold_cb_;
  sim::Scheduler::EventId wire_done_event_ = sim::Scheduler::kInvalidEvent;
  sim::Ring<InFlight> in_flight_;  // FIFO: front is oldest
  /// The TLP that failed its LCRC (null when none), held until
  /// wire_done_event_ requeues it for retransmission. It is the newest TLP
  /// past the serializer: the wire stays busy while it waits.
  TlpPtr replay_;
  std::uint32_t head_replay_count_ = 0;  // consecutive replays of head TLP

  // Receive side.
  TlpSink* sink_ = nullptr;
  std::uint64_t rx_free_;

  std::uint64_t tlps_sent_ = 0;
  std::uint64_t wire_sent_ = 0;
  std::uint64_t data_sent_ = 0;
  std::uint64_t replays_ = 0;
  std::uint64_t dropped_tlps_ = 0;
  std::uint64_t abandoned_tlps_ = 0;
  TimePs credit_stall_ps_ = 0;
  TimePs stall_since_ = -1;  // head-of-line credit wait start, -1 = not stalled
  Rng* error_rng_ = nullptr;  // shared per-link error process
};

/// A full-duplex link between two ports.
class PcieLink {
 public:
  PcieLink(sim::Scheduler& sched, LinkConfig cfg);

  [[nodiscard]] LinkPort& end_a() { return a_; }
  [[nodiscard]] LinkPort& end_b() { return b_; }
  [[nodiscard]] const LinkPort& end_a() const { return a_; }
  [[nodiscard]] const LinkPort& end_b() const { return b_; }
  [[nodiscard]] const LinkConfig& config() const { return cfg_; }

  /// Fault injection: surprise-down. In-flight TLPs are dropped off the
  /// wire and counted (dropped_tlps) but not destroyed — the data-link layer
  /// never saw their ack DLLPs, so they return to the replay buffer and
  /// retransmit after retrain. Bringing the link back up resumes queued
  /// traffic — unless a route failover abandoned it first (see
  /// LinkPort::abandon_queued). Unlike an NTB-based fabric, a TCA link loss
  /// is survivable: the host-to-chip connection is unaffected (Section V).
  void set_up(bool up);
  [[nodiscard]] bool is_up() const { return up_; }

  /// Fault injection: change the bit error rate at runtime (BER burst
  /// windows in a FaultPlan). The ports read it per TLP; the byte rate they
  /// took once, at construction.
  void set_bit_error_rate(double ber) { cfg_.bit_error_rate = ber; }

 private:
  LinkConfig cfg_;
  bool up_ = true;
  Rng error_rng_;
  LinkPort a_;
  LinkPort b_;
};

}  // namespace tca::pcie
