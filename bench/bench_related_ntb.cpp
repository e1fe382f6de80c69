// Related-work comparison (Section V): PEACH2/PEARL vs a non-transparent
// bridge (NTB).
//
// The paper's argument is qualitative; this bench makes it measurable:
//   * latency: an NTB write crosses one translation stage, so raw latency
//     is comparable to PEACH2's PIO path;
//   * scalability: an NTB joins exactly two hosts, PEACH2 routes a 16-node
//     sub-cluster;
//   * robustness: dropping the inter-node link wedges an NTB host until
//     reboot, while "the link state with the other node has no impact on
//     the connection between the host and the PEACH2 chip".
#include "baseline/ntb.h"
#include "bench/bench_util.h"

using namespace tca;

namespace {

double ntb_write_latency_ns(sim::Scheduler& sched, node::ComputeNode& src,
                            node::ComputeNode& dst, std::uint32_t value) {
  std::uint32_t zero = 0;
  dst.cpu().write_host(0x900, std::as_bytes(std::span(&zero, 1)));
  auto poll = dst.cpu().poll_host_until_change(0x900, 0);
  const TimePs t0 = sched.now();
  std::array<std::byte, 4> data;
  std::memcpy(data.data(), &value, 4);
  auto store =
      src.cpu().mmio_store(baseline::NtbBridge::kApertureBase + 0x900, data);
  sched.run();
  return units::to_ns(poll.result() - t0);
}

}  // namespace

int main() {
  bench::ShapeCheck check;

  // --- NTB pair -------------------------------------------------------------
  sim::Scheduler ntb_sched;
  node::ComputeNode na(ntb_sched, 0,
                       {.gpu_count = 0, .host_backing_bytes = 8 << 20});
  node::ComputeNode nb(ntb_sched, 1,
                       {.gpu_count = 0, .host_backing_bytes = 8 << 20});
  baseline::NtbBridge ntb(ntb_sched, na, nb);
  const double ntb_ns = ntb_write_latency_ns(ntb_sched, na, nb, 7);

  // --- PEACH2 pair ------------------------------------------------------------
  bench::DmaRig rig;
  auto& tca = rig.cluster;
  std::uint32_t zero = 0;
  tca.node(1).cpu().write_host(0x900, std::as_bytes(std::span(&zero, 1)));
  auto poll = tca.node(1).cpu().poll_host_until_change(0x900, 0);
  const TimePs t0 = rig.sched.now();
  auto store = tca.driver(0).pio_store_u32(tca.global_host(1, 0x900), 7);
  rig.sched.run();
  const double peach2_ns = units::to_ns(poll.result() - t0);

  // --- Robustness under link loss ----------------------------------------------
  ntb.set_link_up(false);
  std::array<std::byte, 4> probe{};
  auto doomed = na.cpu().mmio_store(baseline::NtbBridge::kApertureBase, probe);
  ntb_sched.run();
  const bool ntb_wedged = ntb.hung(0);

  tca.set_fabric_up(false);
  auto held = tca.driver(0).pio_store_u32(tca.global_host(1, 0xa00), 9);
  rig.sched.run_for(units::us(50));
  auto id_read = tca.driver(0).read_register(peach2::regs::kChipId);
  rig.sched.run_for(units::us(50));
  const bool peach2_host_ok =
      id_read.done() && id_read.result() == peach2::regs::kChipIdValue;
  tca.set_fabric_up(true);
  rig.sched.run();
  std::uint32_t recovered = 0;
  tca.node(1).cpu().read_host(0xa00,
                              std::as_writable_bytes(std::span(&recovered, 1)));

  TablePrinter table({"Property", "NTB", "PEACH2 (TCA)"});
  table.add_row({"Adjacent-node write latency",
                 TablePrinter::cell(ntb_ns, 0) + " ns",
                 TablePrinter::cell(peach2_ns, 0) + " ns"});
  table.add_row({"Nodes reachable", "2 (point-to-point)",
                 "up to 16 (routed sub-cluster)"});
  table.add_row({"Standardized behaviour", "no (vendor-specific)",
                 "plain PCIe EPs per port"});
  table.add_row({"Peer link loss", ntb_wedged ? "host wedged until reboot"
                                              : "(unexpected)",
                 peach2_host_ok ? "host-chip link unaffected"
                                : "(unexpected)"});
  table.add_row({"Traffic during outage", "lost (machine check)",
                 recovered == 9 ? "held and delivered after relink"
                                : "(unexpected)"});

  print_section("Section V: PEACH2 vs non-transparent bridge (NTB)");
  table.print();

  check.expect(ntb_ns < 1200 && peach2_ns < 1000,
               "both give sub-microsecond-class adjacent-node writes");
  check.expect(ntb_wedged, "NTB: disconnection wedges the host (reboot)");
  check.expect(peach2_host_ok,
               "PEACH2: host-chip connection survives fabric loss");
  check.expect(recovered == 9,
               "PEACH2: held TLP delivered after the link returns");
  return check.finish();
}
