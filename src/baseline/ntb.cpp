#include "baseline/ntb.h"

namespace tca::baseline {

NtbBridge::NtbBridge(sim::Scheduler& sched, node::ComputeNode& node_a,
                     node::ComputeNode& node_b, NtbConfig config)
    : sched_(sched), cfg_(config), nodes_{&node_a, &node_b} {
  for (int side = 0; side < 2; ++side) {
    endpoints_[static_cast<std::size_t>(side)] =
        std::make_unique<Endpoint>(*this, side);
    links_[static_cast<std::size_t>(side)] = std::make_unique<pcie::PcieLink>(
        sched, pcie::LinkConfig{.gen = 2,
                                .lanes = 8,
                                .name = "ntb/side" + std::to_string(side)});
    auto& link = *links_[static_cast<std::size_t>(side)];
    // The NTB endpoint claims the aperture BAR on its node's bus. Device id
    // 200+side keeps clear of node-local ids.
    const Status st =
        nodes_[static_cast<std::size_t>(side)]->socket(0).attach_device(
            static_cast<pcie::DeviceId>(200 + side), link.end_a(),
            {{kApertureBase, kApertureBytes}});
    TCA_ASSERT(st.is_ok());
    link.end_b().set_sink(endpoints_[static_cast<std::size_t>(side)].get());
  }
}

void NtbBridge::Endpoint::on_tlp(pcie::TlpPtr tlp, pcie::LinkPort& port) {
  port.release_rx(tlp->wire_bytes());
  bridge_.forward(side_, std::move(tlp));
}

void NtbBridge::forward(int from_side, pcie::TlpPtr tlp) {
  if (!link_up_) {
    // The Section V failure mode: the host expects an EP that can no longer
    // respond; the transaction times out and the hierarchy wedges until
    // reboot.
    hung_[from_side & 1] = true;
    ++dropped_;
    return;
  }
  if (tlp->type != pcie::TlpType::kMemWrite) {
    // Posted-write path only (reads would need completion forwarding across
    // the bridge; the comparison needs only the put path).
    ++dropped_;
    return;
  }
  // Address translation: aperture offset -> peer host window.
  const std::uint64_t offset = tlp->address - kApertureBase;
  const std::uint64_t peer_addr =
      node::layout::kHostBase + cfg_.peer_window_offset + offset;
  const int to_side = 1 - from_side;
  ++forwarded_;

  sched_.schedule_after(
      kTranslationPs,
      [this, to_side, peer_addr, out = std::move(tlp)]() mutable {
        // Inject into the peer's root complex as if from the NTB EP: the
        // same packet, its header rewritten.
        out->rewrite_as_mem_write(peer_addr, 0);
        nodes_[static_cast<std::size_t>(to_side)]->socket(0).inject_from_cpu(
            std::move(out));
      });
}

}  // namespace tca::baseline
