// Section IV-A theoretical-peak reproduction: PCIe Gen2 x8 efficiency as a
// function of MaxPayloadSize, including the paper's exact formula
//
//   4 GB/s x 256 / (256 + 16 + 2 + 4 + 1 + 1) = 3.66 GB/s
//
// and a measured link sweep demonstrating the simulator's wire model
// matches the analytic value for every payload size.
#include <functional>

#include "bench/bench_util.h"
#include "pcie/link.h"
#include "pcie/tlp.h"

using namespace tca;

namespace {

/// Measures sustained throughput of a saturated link at a given payload.
double measure_link(std::uint32_t payload) {
  sim::Scheduler sched;
  pcie::PcieLink link(sched, {.gen = 2, .lanes = 8});

  struct Sink : pcie::TlpSink {
    void on_tlp(pcie::TlpPtr tlp, pcie::LinkPort& port) override {
      port.release_rx(tlp->wire_bytes());
    }
  } sink;
  link.end_b().set_sink(&sink);

  constexpr std::uint64_t kTotal = 4 << 20;
  std::uint64_t sent = 0;
  std::vector<std::byte> data(payload, std::byte{0xA5});
  std::function<void()> pump = [&] {
    while (sent < kTotal) {
      // Build TLPs manually: the wire math must accept any payload size.
      pcie::TlpPtr tlp = pcie::Tlp::make();
      tlp->type = pcie::TlpType::kMemWrite;
      tlp->address = sent;
      tlp->length = payload;
      tlp->payload.assign(data.begin(), data.end());
      if (!link.end_a().can_send(*tlp)) return;
      link.end_a().send(std::move(tlp));
      sent += payload;
    }
  };
  link.end_a().set_tx_ready(pump);
  pump();
  sched.run();
  return units::gbytes_per_second(kTotal, sched.now());
}

}  // namespace

int main() {
  bench::ShapeCheck check;
  const std::vector<std::uint32_t> payloads = {64, 128, 256, 512, 1024};

  TablePrinter table({"MaxPayload", "Analytic peak", "Measured",
                      "Efficiency", "(Gbytes/s)"});
  double measured_256 = 0;
  for (std::uint32_t p : payloads) {
    const double analytic =
        4.0 * p / (p + calib::kTlpWithDataOverheadBytes);
    const double measured = measure_link(p);
    if (p == 256) measured_256 = measured;
    table.add_row({units::format_size(p), bench::fmt_gbps(analytic),
                   bench::fmt_gbps(measured),
                   TablePrinter::cell(100.0 * p /
                                          (p + calib::kTlpWithDataOverheadBytes),
                                      1) +
                       "%",
                   ""});
    check.expect_near(measured, analytic, 0.01,
                      "measured matches analytic at MPS " +
                          units::format_size(p));
  }

  print_section(
      "Theoretical peak: Gen2 x8 efficiency vs MaxPayloadSize (paper "
      "formula)");
  table.print();
  std::printf("\nPaper (MPS=256): 4 GB/s x 256/280 = 3.66 Gbytes/s; the DMA "
              "engine\nreaches 93%% of this (see bench_fig7).\n");

  check.expect_near(measured_256, 3.657, 0.01,
                    "MPS=256 peak equals the paper's 3.66 GB/s");
  return check.finish();
}
