// Non-transparent bridge (NTB) baseline — the Section V related work.
//
// "The non-transparent bridge (NTB), which is embedded in the PCI-E switch,
//  allows inter-node communication by means of a special function. ... The
//  bridge behaves as two different EPs ... and address translation is
//  performed between the upstream port and the downstream port within the
//  NTB. ... However, the NTB is not defined in the standard of PCI-E ...
//  Furthermore, during the BIOS scan at boot time, the host must recognize
//  the EPs in the NTB and disconnection of the node causes a system reboot."
//
// Modeled: a bridge joining exactly two nodes (NTB is point-to-point; no
// fabric, no routing). Each side exposes an aperture BAR; posted writes into
// it are address-translated and forwarded into the peer node's host memory.
// The fragility is modeled too: if the inter-node link is down, an access to
// the aperture leaves the issuing node's PCIe hierarchy wedged (`hung()`),
// requiring a reboot — unlike PEACH2, whose host link is independent of the
// fabric state (see tests/fault_test.cpp for the contrast).
#pragma once

#include <cstdint>
#include <memory>

#include "node/compute_node.h"
#include "pcie/link.h"
#include "sim/scheduler.h"

namespace tca::baseline {

struct NtbConfig {
  /// Peer host-memory offset the aperture translates to.
  std::uint64_t peer_window_offset = 0;
};

class NtbBridge {
 public:
  /// Aperture BAR each side exposes (same local bus address on both nodes).
  static constexpr std::uint64_t kApertureBase = 0x38'0000'0000ull;
  static constexpr std::uint64_t kApertureBytes = 16ull << 20;
  /// Translation + switch traversal latency per TLP.
  static constexpr TimePs kTranslationPs = units::ns(150);

  NtbBridge(sim::Scheduler& sched, node::ComputeNode& node_a,
            node::ComputeNode& node_b, NtbConfig config = {});

  [[nodiscard]] const NtbConfig& config() const { return cfg_; }

  /// Inter-node cable state. Taking it down does NOT stall traffic like a
  /// PEACH2 cable: the next aperture access wedges the issuing node.
  void set_link_up(bool up) { link_up_ = up; }
  [[nodiscard]] bool link_up() const { return link_up_; }

  /// True once a node accessed the aperture during an outage: its PCIe
  /// hierarchy is wedged until reboot (the Section V failure mode).
  [[nodiscard]] bool hung(int side) const { return hung_[side & 1]; }

  /// Clears the wedge — models the reboot the paper says is required.
  void reboot(int side) { hung_[side & 1] = false; }

  [[nodiscard]] std::uint64_t forwarded_tlps() const { return forwarded_; }
  [[nodiscard]] std::uint64_t dropped_tlps() const { return dropped_; }

 private:
  /// One NTB endpoint: EP on its node's bus, forwards into the peer.
  class Endpoint : public pcie::TlpSink {
   public:
    Endpoint(NtbBridge& bridge, int side) : bridge_(bridge), side_(side) {}
    void on_tlp(pcie::TlpPtr tlp, pcie::LinkPort& port) override;

   private:
    NtbBridge& bridge_;
    int side_;
  };

  void forward(int from_side, pcie::TlpPtr tlp);

  sim::Scheduler& sched_;
  NtbConfig cfg_;
  std::array<node::ComputeNode*, 2> nodes_;
  std::array<std::unique_ptr<pcie::PcieLink>, 2> links_;
  std::array<std::unique_ptr<Endpoint>, 2> endpoints_;
  bool link_up_ = true;
  std::array<bool, 2> hung_{false, false};
  std::uint64_t forwarded_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace tca::baseline
