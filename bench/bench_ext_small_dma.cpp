// Extension bench (Section IV-A1): descriptor-less DMA and polled
// completion for small transfers.
//
// "Since retrieving the descriptor table is the dominant factor in
//  performance degradation, the DMA function without a descriptor is also
//  desired for relatively small amounts of data, i.e., several hundreds or
//  thousands of bytes."
//
// This bench implements and quantifies exactly that wished-for feature,
// plus a polled (status-writeback) completion mode that avoids the
// interrupt path — the two optimizations the production TCA software stack
// adopted. Compared against the baseline descriptor chain and PIO. The
// Immediate+poll column combines both: it is the path every reliable put
// (Runtime::memcpy_peer_reliable, so every coll ring step) takes.
#include "bench/bench_util.h"

using namespace tca;
using bench::DmaRig;
using driver::Completion;
using driver::Source;
using peach2::DmaDescriptor;
using peach2::DmaDirection;

int main() {
  bench::ShapeCheck check;
  DmaRig rig;
  driver::Peach2Driver& drv = rig.cluster.driver(0);
  auto& tca = rig.cluster;

  const std::vector<std::uint32_t> sizes = {64, 256, 1024, 4096, 16384};

  TablePrinter table({"Size", "Chain+IRQ", "Chain+poll", "Immediate+IRQ",
                      "Immediate+poll", "PIO store",
                      "(remote host write latency)"});
  double chain_4k_us = 0, imm_4k_us = 0, polled_4k_us = 0;
  bool imm_polled_fastest = true;

  for (std::uint32_t size : sizes) {
    const DmaDescriptor desc{.src = drv.internal_global(0),
                             .dst = tca.global_host(1, 0),
                             .length = size,
                             .direction = DmaDirection::kWrite};

    // Baseline: single-descriptor chain, interrupt completion.
    auto t_chain = drv.run_chain({desc});
    rig.sched.run();
    const TimePs chain = t_chain.result();

    // Polled completion: same chain, status writeback + host spin.
    auto t_polled =
        drv.run_chain({desc}, 0, 0, Source::kTable, Completion::kWriteback);
    rig.sched.run();
    const TimePs polled = t_polled.result();

    // Descriptor-less immediate DMA.
    auto t_imm = drv.run_chain({desc}, 0, 0, Source::kImmediate);
    rig.sched.run();
    const TimePs imm = t_imm.result();

    // Both: immediate registers, status-writeback completion.
    auto t_imm_polled = drv.run_chain({desc}, 0, 0, Source::kImmediate,
                                      Completion::kWriteback);
    rig.sched.run();
    const TimePs imm_polled = t_imm_polled.result();
    imm_polled_fastest = imm_polled_fastest && imm_polled < imm &&
                         imm_polled < polled;

    // PIO: CPU store loop through the window (the latency reference).
    std::vector<std::byte> data(size, std::byte{0x3C});
    const TimePs p0 = rig.sched.now();
    auto t_pio = drv.pio_store(tca.global_host(1, 0x800), data);
    rig.sched.run();
    const TimePs pio = rig.sched.now() - p0;

    table.add_row({units::format_size(size), units::format_time(chain),
                   units::format_time(polled), units::format_time(imm),
                   units::format_time(imm_polled), units::format_time(pio),
                   ""});
    if (size == 4096) {
      chain_4k_us = units::to_us(chain);
      imm_4k_us = units::to_us(imm);
      polled_4k_us = units::to_us(polled);
    }
  }

  print_section(
      "Extension: descriptor-less DMA & polled completion (small remote "
      "writes)");
  table.print();
  std::printf("\nThe immediate path removes the descriptor-table fetch "
              "(%.1f us saved);\npolled completion removes the interrupt "
              "path (%.1f us saved). PIO remains\nbest below ~1 KiB; the "
              "immediate engine wins the mid range.\n",
              chain_4k_us - imm_4k_us, chain_4k_us - polled_4k_us);

  check.expect(imm_4k_us < chain_4k_us - 0.5,
               "immediate DMA removes the table-fetch cost");
  check.expect(polled_4k_us < chain_4k_us - 0.5,
               "polled completion removes the interrupt cost");
  check.expect(imm_polled_fastest,
               "immediate + polled beats immediate + IRQ and chain + poll "
               "at every size");
  return check.finish();
}
