// Root complex / host-side PCIe switch of one CPU socket.
//
// Fig. 2 of the paper: every device (GPUs, the PEACH2 board) hangs off the
// "PCIe switch embedded in the CPU socket", all sharing one PCIe address
// space — that shared space is what makes GPUDirect peer-to-peer and the
// PEACH2 window work. The RootComplex routes TLPs between:
//   * host DRAM (memory writes commit after kHostWriteCommitPs; reads are
//     answered with split completions after kHostReadLatencyPs),
//   * downstream device BARs (peer-to-peer forwarding, e.g. PEACH2 -> GPU),
//   * the peer socket over QPI (heavily throttled, matching the paper's
//     observation that P2P over QPI degrades to a few hundred MB/s),
//   * the CPU cores (MMIO stores/loads injected by CpuAgent).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "calib/calibration.h"
#include "memory/dram.h"
#include "memory/range_map.h"
#include "pcie/link.h"
#include "sim/ring.h"
#include "sim/scheduler.h"

namespace tca::node {

class RootComplex : public pcie::TlpSink {
 public:
  /// `host_dram` backs the host-memory range [host_base, host_base+size).
  RootComplex(sim::Scheduler& sched, int socket, mem::Dram& host_dram,
              std::uint64_t host_base, pcie::DeviceId cpu_id);

  [[nodiscard]] int socket() const { return socket_; }
  [[nodiscard]] pcie::DeviceId cpu_device_id() const { return cpu_id_; }

  /// Attaches a downstream device: the RC-side end of its link plus the BAR
  /// ranges it claims. The RC becomes the port's sink and sole sender.
  Status attach_device(
      pcie::DeviceId id, pcie::LinkPort& rc_port,
      const std::vector<std::pair<std::uint64_t, std::uint64_t>>& bars);

  /// Connects this socket to its peer over QPI. Addresses that don't decode
  /// locally are forwarded there (and only there, one hop: traffic arriving
  /// *from* QPI never re-crosses it).
  void connect_qpi(pcie::LinkPort& qpi_port);

  /// CPU-core access: injects a TLP as if issued by a core (MMIO store or
  /// load). No link is modeled between core and RC; issue costs are applied
  /// by CpuAgent.
  void inject_from_cpu(pcie::TlpPtr tlp);

  /// Handler for completions addressed to the CPU (MMIO load replies).
  void set_cpu_completion_handler(
      std::function<void(pcie::TlpPtr)> handler) {
    cpu_completion_ = std::move(handler);
  }

  // TlpSink.
  void on_tlp(pcie::TlpPtr tlp, pcie::LinkPort& port) override;

  [[nodiscard]] std::uint64_t host_bytes_written() const { return host_wr_; }
  [[nodiscard]] std::uint64_t host_bytes_read() const { return host_rd_; }
  [[nodiscard]] std::uint64_t unroutable_tlps() const { return unroutable_; }

 private:
  struct Attachment {
    enum class Kind { kHostMemory, kDevice } kind;
    std::size_t egress = 0;  // kDevice: index into egress_
  };

  /// One downstream port (or QPI) and the TLPs waiting for its credits.
  struct Egress {
    pcie::LinkPort* port = nullptr;
    sim::Ring<pcie::TlpPtr> queue;
  };

  void route(pcie::TlpPtr tlp, bool arrived_via_qpi);
  void handle_host_write(pcie::TlpPtr tlp);
  void handle_host_read(pcie::TlpPtr tlp);
  void send_to_requester(pcie::TlpPtr cpl);
  /// Adds an egress queue for `port`, pumped on its tx-ready; returns its
  /// index.
  std::size_t add_egress(pcie::LinkPort& port);
  void forward(std::size_t egress, pcie::TlpPtr tlp);
  void pump(Egress& eg);

  sim::Scheduler& sched_;
  int socket_;
  mem::Dram& host_dram_;
  std::uint64_t host_base_;
  pcie::DeviceId cpu_id_;

  mem::RangeMap<Attachment> map_;
  pcie::LinkPort* qpi_port_ = nullptr;
  std::size_t qpi_egress_ = 0;  // valid when qpi_port_ is set
  std::unordered_map<pcie::DeviceId, Attachment> requester_route_;
  std::function<void(pcie::TlpPtr)> cpu_completion_;

  // Per-port egress queues, in attach order (the RC has ample internal
  // buffering; inbound credits are returned on receipt).
  std::vector<Egress> egress_;

  std::uint64_t host_wr_ = 0;
  std::uint64_t host_rd_ = 0;
  std::uint64_t unroutable_ = 0;
};

}  // namespace tca::node
