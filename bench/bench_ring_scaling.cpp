// Sub-cluster scaling (Sections II-B, III-E): ring size, hop distance, and
// the dual-ring (South port) topology.
//
// The paper bounds the sub-cluster at 8-16 nodes because "a large number of
// nodes degrades the performance": every hop adds a store-and-forward
// router traversal plus cable flight time. This bench quantifies the
// per-hop cost, shows bandwidth is hop-count-insensitive for large
// transfers (pipelining hides latency), and shows the S-port dual-ring
// halving worst-case hops at 8+ nodes.
#include "bench/bench_util.h"

using namespace tca;
using peach2::DmaDescriptor;
using peach2::DmaDirection;

namespace {

/// PIO latency from node 0 to node `dest` in an existing cluster.
double pio_latency_ns(bench::DmaRig& rig, std::uint32_t dest) {
  auto& tca = rig.cluster;
  std::uint32_t zero = 0;
  tca.node(dest).cpu().write_host(0x200, std::as_bytes(std::span(&zero, 1)));
  auto poll = tca.node(dest).cpu().poll_host_until_change(0x200, 0);
  const TimePs t0 = rig.sched.now();
  auto store = tca.driver(0).pio_store_u32(tca.global_host(dest, 0x200), 5);
  rig.sched.run();
  return units::to_ns(poll.result() - t0);
}

/// 255 x 4 KiB chained write bandwidth from node 0 to node `dest`.
double chain_bw(bench::DmaRig& rig, std::uint32_t dest) {
  driver::Peach2Driver& drv = rig.cluster.driver(0);
  const TimePs elapsed =
      rig.run(0, rig.make_chain(255, 4096, DmaDirection::kWrite,
                                drv.internal_global(0),
                                rig.cluster.global_host(dest, 0)));
  return units::gbytes_per_second(255ull * 4096, elapsed);
}

}  // namespace

int main() {
  bench::ShapeCheck check;

  // --- Per-hop latency and bandwidth in a 8-node ring ------------------------
  bench::DmaRig ring8(8);
  TablePrinter hops({"Destination", "Hops", "PIO latency", "DMA BW 4KiBx255",
                     "(ring of 8)"});
  std::vector<double> lat_by_hops;
  for (std::uint32_t dest : {1u, 2u, 3u, 4u}) {
    const double lat = pio_latency_ns(ring8, dest);
    const double bw = chain_bw(ring8, dest);
    lat_by_hops.push_back(lat);
    hops.add_row({"node " + std::to_string(dest),
                  TablePrinter::cell(std::uint64_t{ring8.cluster.hops(
                      0, dest)}),
                  TablePrinter::cell(lat, 0) + " ns",
                  bench::fmt_gbps(bw) + " GB/s", ""});
  }
  print_section("Ring scaling: hop distance vs latency and bandwidth");
  hops.print();

  const double per_hop_1 = lat_by_hops[1] - lat_by_hops[0];
  const double per_hop_2 = lat_by_hops[2] - lat_by_hops[1];
  std::printf("\nPer-hop cost: +%.0f ns (route pipeline %.0f ns + cable "
              "%.0f ns + wire)\n",
              per_hop_1, units::to_ns(calib::kRouteLatencyPs),
              units::to_ns(calib::kCableLatencyPs));
  std::printf("Multi-hop 4 KiB bandwidth declines as the delivery-"
              "notification round trip\ngrows past the per-descriptor wire "
              "time — the reason the paper bounds\nsub-clusters at 8-16 "
              "nodes (\"a large number of nodes degrades the\n"
              "performance\").\n");

  // --- Ring size sweep: adjacent-node metrics stay constant ------------------
  TablePrinter rings({"Nodes", "Adjacent PIO", "Adjacent DMA BW",
                      "Max hops (ring)", "Max hops (dual ring)"});
  for (std::uint32_t n : {2u, 4u, 8u, 16u}) {
    bench::DmaRig rig(n);
    rings.add_row({TablePrinter::cell(std::uint64_t{n}),
                   TablePrinter::cell(pio_latency_ns(rig, 1), 0) + " ns",
                   bench::fmt_gbps(chain_bw(rig, 1)) + " GB/s",
                   TablePrinter::cell(std::uint64_t{n / 2}),
                   TablePrinter::cell(std::uint64_t{n / 4 + 1})});
  }
  print_section("Ring size sweep (sub-cluster bounds: 8-16 nodes)");
  rings.print();

  // --- Dual-ring cross-traffic -------------------------------------------------
  sim::Scheduler dsched;
  fabric::SubCluster dual_ring(
      dsched, fabric::SubClusterConfig{
                  .spec = fabric::TopologySpec::dual_ring(8),
                  .node_config = {.gpu_count = 2,
                                  .host_backing_bytes = 64ull << 20,
                                  .gpu_backing_bytes = 8ull << 20}});
  // Node 0 -> node 4 (its S-port pair): one hop through South.
  std::uint32_t zero = 0;
  dual_ring.node(4).cpu().write_host(0x80, std::as_bytes(std::span(&zero, 1)));
  auto poll = dual_ring.node(4).cpu().poll_host_until_change(0x80, 0);
  const TimePs t0 = dsched.now();
  auto store =
      dual_ring.driver(0).pio_store_u32(dual_ring.global_host(4, 0x80), 9);
  dsched.run();
  const double cross_ns = units::to_ns(poll.result() - t0);
  std::printf("\nDual ring: node0 -> node4 over the South port: %.0f ns "
              "(vs %.0f ns for 4 ring hops)\n",
              cross_ns, lat_by_hops[3]);

  // Tolerance covers the 50 ns polling-loop quantization of the detector.
  check.expect_near(per_hop_1, per_hop_2, 55.0,
                    "latency grows linearly with hop count");
  check.expect(lat_by_hops[3] > lat_by_hops[0] + 3 * 150 &&
                   lat_by_hops[3] < lat_by_hops[0] + 3 * 300,
               "4-hop latency = 1-hop + 3 x per-hop cost");
  check.expect_near(per_hop_1,
                    units::to_ns(calib::kRouteLatencyPs +
                                 calib::kCableLatencyPs),
                    60.0, "per-hop cost ~= route pipeline + cable");
  check.expect(cross_ns < lat_by_hops[3],
               "S-port cross-link beats riding the ring to the far side");
  return check.finish();
}
