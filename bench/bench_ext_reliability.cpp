// Extension bench: PEARL link reliability under injected bit errors.
//
// PEARL stands for "PCI Express Adaptive and *Reliable* Link" — the link
// technology descends from the dependable-embedded-systems PEACH1 work
// (reference [5]). This bench injects bit errors on the inter-node cables
// and shows the data-link-layer replay keeping every transfer correct while
// bandwidth degrades gracefully with the error rate.
#include "bench/bench_util.h"
#include "common/rng.h"

using namespace tca;
using peach2::DmaDirection;

namespace {

struct Run {
  double gbps;
  std::uint64_t replays;
  bool data_ok;
};

Run run_with_ber(double ber) {
  sim::Scheduler sched;
  fabric::SubCluster tca(
      sched, fabric::SubClusterConfig{
                 .spec = fabric::TopologySpec::ring(2),
                 .node_config = {.gpu_count = 2,
                                 .host_backing_bytes = 64ull << 20,
                                 .gpu_backing_bytes = 8ull << 20},
                 .cable_bit_error_rate = ber});
  driver::Peach2Driver& drv = tca.driver(0);
  Rng rng(3);
  std::vector<std::byte> fill(1 << 20);
  rng.fill(fill);
  tca.chip(0).internal_ram().write(0, fill);

  std::vector<peach2::DmaDescriptor> chain;
  for (std::uint32_t i = 0; i < 255; ++i) {
    chain.push_back({.src = drv.internal_global((i * 4096ull) % (1 << 20)),
                     .dst = tca.global_host(1, (i * 4096ull) % (1 << 20)),
                     .length = 4096,
                     .direction = DmaDirection::kWrite});
  }
  auto t = drv.run_chain(std::move(chain));
  sched.run();

  // Verify the final descriptor's data landed intact.
  std::vector<std::byte> got(4096), want(4096);
  tca.node(1).cpu().read_host((254 * 4096ull) % (1 << 20), got);
  tca.chip(0).internal_ram().read((254 * 4096ull) % (1 << 20), want);

  // Count replays across both cables, both directions.
  std::uint64_t replays = 0;
  // Cables are not directly exposed; replays show up on the chips' egress
  // ports' links — approximate via the known cable between the chips by
  // probing the east egress... simplest: the SubCluster stats don't track
  // link replays, so re-derive from the total wire traffic is overkill;
  // instead expose through the chip's East port link config? The bench
  // tracks correctness + bandwidth; replays are sampled from a standalone
  // link below.
  (void)replays;

  return Run{units::gbytes_per_second(255ull * 4096, t.result()), 0,
             got == want};
}

/// Standalone saturated link at the given BER: exact replay counts.
std::pair<double, std::uint64_t> link_sweep(double ber) {
  sim::Scheduler sched;
  pcie::PcieLink link(sched, {.gen = 2,
                              .lanes = 8,
                              .bit_error_rate = ber,
                              .error_seed = 99});
  struct Sink : pcie::TlpSink {
    void on_tlp(pcie::TlpPtr tlp, pcie::LinkPort& port) override {
      port.release_rx(tlp->wire_bytes());
    }
  } sink;
  link.end_b().set_sink(&sink);
  constexpr std::uint64_t kTotal = 4 << 20;
  std::uint64_t sent = 0;
  std::vector<std::byte> payload(256, std::byte{0x77});
  std::function<void()> pump = [&] {
    while (sent < kTotal) {
      pcie::TlpPtr tlp = pcie::Tlp::make();
      tlp->type = pcie::TlpType::kMemWrite;
      tlp->length = 256;
      tlp->payload.assign(payload.begin(), payload.end());
      if (!link.end_a().can_send(*tlp)) return;
      link.end_a().send(std::move(tlp));
      sent += 256;
    }
  };
  link.end_a().set_tx_ready(pump);
  pump();
  sched.run();
  return {units::gbytes_per_second(kTotal, sched.now()),
          link.end_a().replays()};
}

}  // namespace

int main() {
  bench::ShapeCheck check;

  TablePrinter table({"Bit error rate", "Link BW", "Replays/16Ki TLPs",
                      "End-to-end DMA BW", "Data intact"});
  const std::vector<double> bers = {0, 1e-9, 1e-7, 1e-6, 1e-5};
  double bw_clean = 0, bw_noisy = 0;
  for (double ber : bers) {
    const auto [link_bw, replays] = link_sweep(ber);
    const Run dma = run_with_ber(ber);
    char label[32];
    std::snprintf(label, sizeof label, "%.0e", ber);
    table.add_row({ber == 0 ? "0" : label,
                   TablePrinter::cell(link_bw, 3) + " GB/s",
                   TablePrinter::cell(replays),
                   TablePrinter::cell(dma.gbps, 3) + " GB/s",
                   dma.data_ok ? "yes" : "NO"});
    check.expect(dma.data_ok, std::string("data intact at BER ") + label);
    if (ber == 0) bw_clean = link_bw;
    if (ber == 1e-5) bw_noisy = link_bw;
  }

  print_section(
      "Extension: PEARL reliability — bandwidth under injected bit errors");
  table.print();
  std::printf("\nReplay keeps the fabric lossless; each LCRC failure costs "
              "one TLP time\nplus the %s replay turnaround.\n",
              units::format_time(calib::kReplayDelayPs).c_str());

  check.expect(bw_noisy < bw_clean,
               "bandwidth degrades gracefully with the error rate");
  check.expect(bw_noisy > bw_clean * 0.8,
               "1e-5 BER costs only a few percent, not collapse");
  return check.finish();
}
