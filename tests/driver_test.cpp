// Driver-level tests: the MMIO register path end-to-end, descriptor-table
// contents in host memory, immediate (descriptor-less) DMA, polled
// completion and its watchdog, PIO semantics, and internal-RAM diagnostics
// reads.
#include <gtest/gtest.h>

#include "fabric/sub_cluster.h"
#include "peach2/registers.h"

namespace tca::driver {
namespace {

using fabric::SubCluster;
using fabric::SubClusterConfig;
using peach2::DmaDescriptor;
using peach2::DmaDirection;
namespace regs = peach2::regs;
using units::ns;
using units::us;

struct Rig {
  Rig()
      : cluster(sched, SubClusterConfig{
                           .spec = fabric::TopologySpec::ring(2),
                           .node_config = {.gpu_count = 2,
                                           .host_backing_bytes = 8 << 20,
                                           .gpu_backing_bytes = 4 << 20}}) {}
  sim::Scheduler sched;
  SubCluster cluster;
};

std::vector<std::byte> pattern(std::size_t n, std::uint8_t seed = 1) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((seed * 41 + i) & 0xff);
  }
  return v;
}

TEST(Driver, DescriptorTableActuallyLivesInHostMemory) {
  Rig rig;
  Peach2Driver& drv = rig.cluster.driver(0);
  auto data = pattern(512, 2);
  rig.cluster.chip(0).internal_ram().write(0, data);

  const DmaDescriptor desc{.src = drv.internal_global(0),
                           .dst = drv.host_buffer_global(0x100),
                           .length = 512,
                           .direction = DmaDirection::kWrite};
  auto t = drv.run_chain({desc});
  rig.sched.run();

  // The serialized table must be present at the driver's table offset.
  const auto& hl = drv.host_layout();
  DmaDescriptor fetched = DmaDescriptor::deserialize(
      rig.cluster.node(0).host_dram().view(hl.desc_table_offset,
                                           DmaDescriptor::kWireSize));
  EXPECT_EQ(fetched.src, desc.src);
  EXPECT_EQ(fetched.dst, desc.dst);
  EXPECT_EQ(fetched.length, desc.length);
  EXPECT_EQ(fetched.direction, desc.direction);
}

TEST(Driver, ImmediateDmaMovesDataWithoutTableFetch) {
  Rig rig;
  Peach2Driver& drv = rig.cluster.driver(0);
  auto data = pattern(2048, 3);
  rig.cluster.chip(0).internal_ram().write(0, data);

  auto t = drv.run_chain(
      {DmaDescriptor{.src = drv.internal_global(0),
                     .dst = rig.cluster.global_host(1, 0x3000),
                     .length = 2048,
                     .direction = DmaDirection::kWrite}},
      0, 0, Source::kImmediate);
  rig.sched.run();
  ASSERT_TRUE(t.done());

  std::vector<std::byte> out(2048);
  rig.cluster.node(1).cpu().read_host(0x3000, out);
  EXPECT_EQ(out, data);
}

TEST(Driver, ImmediateBeatsChainOnLatency) {
  Rig rig;
  Peach2Driver& drv = rig.cluster.driver(0);
  rig.cluster.chip(0).internal_ram().write(0, pattern(64, 4));
  const DmaDescriptor desc{.src = drv.internal_global(0),
                           .dst = rig.cluster.global_host(1, 0),
                           .length = 64,
                           .direction = DmaDirection::kWrite};

  auto chain = drv.run_chain({desc});
  rig.sched.run();
  auto imm = drv.run_chain({desc}, 0, 0, Source::kImmediate);
  rig.sched.run();

  // The table fetch (~0.9 us) disappears; part of the saving is eaten by
  // the three extra register writes.
  EXPECT_LT(imm.result(), chain.result() - ns(300));
}

TEST(Driver, PolledChainCompletesAndRestoresInterruptMode) {
  Rig rig;
  Peach2Driver& drv = rig.cluster.driver(0);
  auto data = pattern(4096, 5);
  rig.cluster.chip(0).internal_ram().write(0, data);
  const DmaDescriptor desc{.src = drv.internal_global(0),
                           .dst = rig.cluster.global_host(1, 0x1000),
                           .length = 4096,
                           .direction = DmaDirection::kWrite};

  auto polled =
      drv.run_chain({desc}, 0, 0, Source::kTable, Completion::kWriteback);
  rig.sched.run();
  ASSERT_TRUE(polled.done());
  std::vector<std::byte> out(4096);
  rig.cluster.node(1).cpu().read_host(0x1000, out);
  EXPECT_EQ(out, data);

  // Interrupt mode restored: a plain chain still completes.
  auto normal = drv.run_chain({desc});
  rig.sched.run();
  ASSERT_TRUE(normal.done());
  EXPECT_LT(polled.result(), normal.result());  // no interrupt latency
}

// Every completion path must ack the done bit: a stale one reads to the
// next chain's watchdog as "signal already in flight", so a doorbell that
// a stuck engine swallowed would never be released.
TEST(Driver, PolledChainAcksTheDoneBitSoAStuckEngineTimesOut) {
  Rig rig;
  Peach2Driver& drv = rig.cluster.driver(0);
  rig.cluster.chip(0).internal_ram().write(0, pattern(256, 8));
  const DmaDescriptor desc{.src = drv.internal_global(0),
                           .dst = rig.cluster.global_host(1, 0x1000),
                           .length = 256,
                           .direction = DmaDirection::kWrite};

  auto polled =
      drv.run_chain({desc}, 0, 0, Source::kTable, Completion::kWriteback);
  rig.sched.run();
  ASSERT_TRUE(polled.done());
  EXPECT_EQ(rig.cluster.chip(0).dmac(0).status() & regs::kDmaStatusDone, 0u);

  rig.cluster.chip(0).dmac(0).set_stuck(true);
  auto stuck = drv.run_chain({desc}, 0, us(20));
  rig.sched.run();
  ASSERT_TRUE(stuck.done());
  EXPECT_EQ(drv.chain_status(0).code(), ErrorCode::kTimedOut);
  EXPECT_EQ(drv.watchdog_timeouts(), 1u);
}

TEST(Driver, PolledChainReportsItsOwnStatus) {
  Rig rig;
  Peach2Driver& drv = rig.cluster.driver(0);
  const DmaDescriptor good{.src = drv.internal_global(0),
                           .dst = rig.cluster.global_host(1, 0x1000),
                           .length = 256,
                           .direction = DmaDirection::kWrite};
  DmaDescriptor bad = good;
  bad.src = rig.cluster.global_host(0, 0);  // writes must source internal RAM

  auto failed = drv.run_chain({bad});
  rig.sched.run();
  EXPECT_EQ(drv.chain_status(0).code(), ErrorCode::kInvalidArgument);

  auto polled =
      drv.run_chain({good}, 0, 0, Source::kTable, Completion::kWriteback);
  rig.sched.run();
  ASSERT_TRUE(polled.done());
  EXPECT_TRUE(drv.chain_status(0).is_ok()) << drv.chain_status(0).to_string();
}

// A direction naming none of the three is a descriptor error on either
// source: the immediate length register's bits 33:32 can hold 3, and a
// table entry's direction word any value. Nothing moves.
TEST(Driver, UnknownDirectionFailsTheDescriptorOnBothSources) {
  for (const Source source : {Source::kTable, Source::kImmediate}) {
    SCOPED_TRACE(source == Source::kTable ? "table" : "immediate");
    Rig rig;
    Peach2Driver& drv = rig.cluster.driver(0);
    rig.cluster.chip(0).internal_ram().write(0, pattern(4096, 11));
    const DmaDescriptor desc{.src = drv.internal_global(0),
                             .dst = rig.cluster.global_host(1, 0x4000),
                             .length = 4096,
                             .direction = static_cast<DmaDirection>(3)};
    auto t = drv.run_chain({desc}, 0, 0, source);
    rig.sched.run();
    ASSERT_TRUE(t.done());
    EXPECT_EQ(drv.chain_status(0).code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(rig.cluster.chip(0).dmac(0).bytes_written(), 0u);
  }
}

TEST(Driver, ImmediatePolledSkipsTheTableFetchAndTheInterrupt) {
  Rig rig;
  Peach2Driver& drv = rig.cluster.driver(0);
  auto data = pattern(1024, 9);
  rig.cluster.chip(0).internal_ram().write(0, data);
  const DmaDescriptor desc{.src = drv.internal_global(0),
                           .dst = rig.cluster.global_host(1, 0x2000),
                           .length = 1024,
                           .direction = DmaDirection::kWrite};
  const peach2::DmaController& engine = rig.cluster.chip(0).dmac(0);

  auto fast = drv.run_chain({desc}, 0, 0, Source::kImmediate,
                            Completion::kWriteback);
  rig.sched.run();
  ASSERT_TRUE(fast.done());
  EXPECT_TRUE(drv.chain_status(0).is_ok());
  EXPECT_EQ(engine.table_fetches(), 0u);
  EXPECT_EQ(engine.interrupts(), 0u);
  std::vector<std::byte> out(1024);
  rig.cluster.node(1).cpu().read_host(0x2000, out);
  EXPECT_EQ(out, data);

  // Each mechanism alone leaves the other's cost on the path.
  auto imm = drv.run_chain({desc}, 0, 0, Source::kImmediate);
  rig.sched.run();
  auto polled =
      drv.run_chain({desc}, 0, 0, Source::kTable, Completion::kWriteback);
  rig.sched.run();
  EXPECT_LT(fast.result(), imm.result() - ns(500));
  EXPECT_LT(fast.result(), polled.result() - ns(500));
}

TEST(Driver, ImmediateReliableTimesOutOnAStuckEngineWithoutWedging) {
  Rig rig;
  Peach2Driver& drv = rig.cluster.driver(0);
  const DmaDescriptor desc{.src = drv.internal_global(0),
                           .dst = rig.cluster.global_host(1, 0x1000),
                           .length = 256,
                           .direction = DmaDirection::kWrite};
  // A completed writeback first, so a stale done bit or completion word
  // would be there to misread.
  auto warm = drv.run_chain({desc}, 0, 0, Source::kImmediate,
                            Completion::kWriteback);
  rig.sched.run();
  ASSERT_TRUE(warm.done());

  for (int ch = 0; ch < calib::kDmaChannels; ++ch) {
    rig.cluster.chip(0).dmac(ch).set_stuck(true);
  }
  auto t = drv.run_chain_reliable({desc},
                                  RetryPolicy{.max_attempts = 3,
                                              .timeout_ps = us(20),
                                              .backoff_base_ps = us(1)},
                                  Source::kImmediate, Completion::kWriteback);
  // Bounded run: a wedged wait spins in poll iterations forever.
  rig.sched.run_for(units::ms(1));
  ASSERT_TRUE(t.done());
  EXPECT_EQ(t.result().status.code(), ErrorCode::kTimedOut);
  EXPECT_EQ(t.result().attempts, 3u);
  EXPECT_EQ(drv.watchdog_timeouts(), 3u);
  EXPECT_EQ(drv.chain_retries(), 2u);
}

TEST(Driver, PioStoreSplitsLargeSpansIntoMaxPayloadTlps) {
  Rig rig;
  Peach2Driver& drv = rig.cluster.driver(0);
  auto data = pattern(1000, 6);  // not a multiple of 256

  auto t = drv.pio_store(rig.cluster.global_host(1, 0x2000), data);
  rig.sched.run();

  std::vector<std::byte> out(1000);
  rig.cluster.node(1).cpu().read_host(0x2000, out);
  EXPECT_EQ(out, data);
}

TEST(Driver, InternalRamReadableOverMmio) {
  Rig rig;
  auto data = pattern(256, 7);
  rig.cluster.chip(0).internal_ram().write(0x500, data);

  // The driver reads the chip's internal RAM through the window (local
  // MRd is allowed from Port N).
  auto t = rig.cluster.node(0).cpu().mmio_load(
      rig.cluster.driver(0).internal_global(0x500), 256);
  rig.sched.run();
  ASSERT_TRUE(t.done());
  EXPECT_EQ(t.result(), data);
}

TEST(Driver, RegisterRoundTripThroughWindow) {
  Rig rig;
  Peach2Driver& drv = rig.cluster.driver(0);
  // Named closures: a temporary lambda dies at the semicolon while the
  // eager coroutine is still suspended on MMIO, dangling its captures.
  auto prog_fn = [&]() -> sim::Task<> {
    co_await drv.write_register(regs::dma_bank(0, regs::kDmaBankTableAddr),
                                0xABCD'0000ull);
  };
  auto prog = prog_fn();
  rig.sched.run();
  // Readback through the same MMIO path (write_register went to the DMAC;
  // the register file reflects it via the kDmaBankWriteback read slot; the
  // table address itself is write-only in hardware, so verify behaviorally:
  // the DMAC sees it on doorbell with count 0 -> error, not a crash).
  auto err_fn = [&]() -> sim::Task<> {
    co_await drv.write_register(regs::dma_bank(0, regs::kDmaBankDoorbell), 1);
  };
  auto err = err_fn();
  rig.sched.run();
  EXPECT_NE(rig.cluster.chip(0).dmac().status() & 4ull, 0u);
}

TEST(Driver, GpuPinningRejectsBadIndexAndRange) {
  Rig rig;
  auto& p2p = rig.cluster.driver(0).p2p();
  EXPECT_FALSE(p2p.pin(5, 0, 4096).is_ok());
  EXPECT_FALSE(p2p.pin(-1, 0, 4096).is_ok());
  EXPECT_FALSE(p2p.pin(0, 1ull << 40, 4096).is_ok());
}

TEST(Driver, HelperAddressesDecodeCorrectly) {
  Rig rig;
  Peach2Driver& drv = rig.cluster.driver(1);
  const auto& layout = rig.cluster.layout();

  auto host = layout.decode(drv.host_buffer_global(0x1234));
  ASSERT_TRUE(host.has_value());
  EXPECT_EQ(host->node, 1u);
  EXPECT_EQ(host->target, peach2::TcaTarget::kHost);

  auto gpu = layout.decode(drv.gpu_global(1, 0x42));
  ASSERT_TRUE(gpu.has_value());
  EXPECT_EQ(gpu->target, peach2::TcaTarget::kGpu1);
  EXPECT_EQ(gpu->offset, 0x42u);

  auto internal = layout.decode(drv.internal_global(0));
  ASSERT_TRUE(internal.has_value());
  EXPECT_EQ(internal->target, peach2::TcaTarget::kInternal);
}

}  // namespace
}  // namespace tca::driver
