// Fault injection and management-plane tests.
//
// Section V contrasts PEACH2 with NTB-based fabrics: "the NTB ... during
// the BIOS scan at boot time, the host must recognize the EPs in the NTB
// and disconnection of the node causes a system reboot. On the other hand,
// the PEACH2 chip has independent PCIe ports, and the link state with the
// other node has no impact on the connection between the host and the
// PEACH2 chip." These tests take fabric links down mid-traffic and verify
// exactly that property, plus the NIOS management processor's view of it.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "fabric/sub_cluster.h"
#include "peach2/nios.h"
#include "peach2/registers.h"

namespace tca::fabric {
namespace {

using driver::Peach2Driver;
using peach2::DmaDescriptor;
using peach2::DmaDirection;
using peach2::PortId;
using units::ns;
using units::us;

SubClusterConfig small_cluster() {
  return SubClusterConfig{
      .spec = TopologySpec::ring(2),
      .node_config = {.gpu_count = 2,
                      .host_backing_bytes = 8 << 20,
                      .gpu_backing_bytes = 4 << 20},
  };
}

std::vector<std::byte> pattern(std::size_t n, std::uint8_t seed = 1) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((seed * 37 + i) & 0xff);
  }
  return v;
}

TEST(Fault, HostChipConnectionSurvivesFabricLinkLoss) {
  sim::Scheduler sched;
  SubCluster tca(sched, small_cluster());

  // Take the inter-node fabric down.
  tca.set_fabric_up(false);
  sched.run_for(us(50));

  // The host <-> PEACH2 connection is unaffected: register reads work...
  auto id = tca.driver(0).read_register(peach2::regs::kChipId);
  sched.run();
  EXPECT_EQ(id.result(), peach2::regs::kChipIdValue);

  // ...and local DMA works (internal RAM -> local host).
  auto data = pattern(4096, 2);
  tca.chip(0).internal_ram().write(0, data);
  auto t = tca.driver(0).run_chain(
      {DmaDescriptor{.src = tca.driver(0).internal_global(0),
                     .dst = tca.driver(0).host_buffer_global(0x1000),
                     .length = 4096,
                     .direction = DmaDirection::kWrite}});
  sched.run();
  ASSERT_TRUE(t.done());
  std::vector<std::byte> out(4096);
  tca.node(0).cpu().read_host(0x1000, out);
  EXPECT_EQ(out, data);
}

TEST(Fault, RemoteTrafficStallsAndResumesAcrossOutage) {
  sim::Scheduler sched;
  SubCluster tca(sched, small_cluster());

  // Kill the fabric, then issue a remote PIO store: it must be held, not
  // lost, and must deliver after the link comes back.
  tca.set_fabric_up(false);
  auto data = pattern(4, 3);
  auto store = tca.driver(0).pio_store(tca.global_host(1, 0x300), data);
  sched.run_for(us(100));

  std::vector<std::byte> out(4);
  tca.node(1).cpu().read_host(0x300, out);
  EXPECT_NE(out, data);  // outage: nothing arrived

  tca.set_fabric_up(true);
  sched.run();
  tca.node(1).cpu().read_host(0x300, out);
  EXPECT_EQ(out, data);  // link restored: held TLP delivered
}

TEST(Fault, RemoteDmaCompletesAfterMidTransferOutage) {
  sim::Scheduler sched;
  SubCluster tca(sched, small_cluster());

  auto data = pattern(64 << 10, 4);
  tca.chip(0).internal_ram().write(0, data);
  auto t = tca.driver(0).run_chain(
      {DmaDescriptor{.src = tca.driver(0).internal_global(0),
                     .dst = tca.global_host(1, 0x4000),
                     .length = 64 << 10,
                     .direction = DmaDirection::kWrite}});

  // Outage in the middle of the transfer; restore after 200 us.
  sched.run_for(us(4));
  tca.set_fabric_up(false);
  EXPECT_FALSE(t.done());
  sched.run_for(us(200));
  EXPECT_FALSE(t.done());  // chain waits for the delivery notification
  tca.set_fabric_up(true);
  sched.run();
  ASSERT_TRUE(t.done());

  std::vector<std::byte> out(64 << 10);
  tca.node(1).cpu().read_host(0x4000, out);
  EXPECT_EQ(out, data);  // nothing lost, nothing duplicated
  EXPECT_GE(t.result(), us(200));  // the outage is visible in the timing
}

TEST(Nios, LogsLinkTransitionsWithServiceDelay) {
  sim::Scheduler sched;
  SubCluster tca(sched, small_cluster());
  auto& nios = tca.chip(0).nios();
  const auto attach_events = nios.event_count();  // N/E/W cabled at build

  tca.set_fabric_up(false);
  sched.run_for(peach2::NiosController::kServiceDelay + ns(100));
  EXPECT_GT(nios.event_count(), attach_events);
  EXPECT_FALSE(nios.link_view(PortId::kEast));
  EXPECT_TRUE(nios.link_view(PortId::kNorth));  // host link untouched

  tca.set_fabric_up(true);
  sched.run_for(peach2::NiosController::kServiceDelay + ns(100));
  EXPECT_TRUE(nios.link_view(PortId::kEast));
}

TEST(Nios, LinkStatusRegistersTrackOutages) {
  sim::Scheduler sched;
  SubCluster tca(sched, small_cluster());
  namespace r = peach2::regs;

  auto east_up = tca.driver(0).read_register(r::kLinkStatusBase + 8);
  sched.run();
  EXPECT_EQ(east_up.result(), r::kLinkUp);

  tca.set_fabric_up(false);
  auto east_down = tca.driver(0).read_register(r::kLinkStatusBase + 8);
  auto north_still = tca.driver(0).read_register(r::kLinkStatusBase + 0);
  sched.run();
  EXPECT_EQ(east_down.result(), r::kLinkDown);
  EXPECT_EQ(north_still.result(), r::kLinkUp);
}

TEST(Nios, ManagementCommandsPingAndClear) {
  sim::Scheduler sched;
  SubCluster tca(sched, small_cluster());
  namespace r = peach2::regs;
  Peach2Driver& drv = tca.driver(0);

  // The closure must outlive the coroutine: a temporary lambda would be
  // destroyed at the semicolon while the task is still suspended on MMIO.
  auto cmds_fn = [&]() -> sim::Task<> {
    co_await drv.write_register(r::kNiosCmd, peach2::NiosController::kCmdPing);
    co_await drv.write_register(r::kNiosCmd, peach2::NiosController::kCmdPing);
  };
  auto cmds = cmds_fn();
  sched.run();
  auto pings = drv.read_register(r::kNiosPingCount);
  sched.run();
  EXPECT_EQ(pings.result(), 2u);

  auto clear = drv.write_register(r::kNiosCmd,
                                  peach2::NiosController::kCmdClearEvents);
  sched.run();
  auto events = drv.read_register(r::kNiosEventCount);
  sched.run();
  EXPECT_EQ(events.result(), 0u);
}

TEST(Nios, UptimeAdvances) {
  sim::Scheduler sched;
  SubCluster tca(sched, small_cluster());
  sched.run_until(us(123));
  auto uptime = tca.driver(0).read_register(peach2::regs::kNiosUptime);
  sched.run();
  EXPECT_GE(uptime.result(), 123'000u);  // nanoseconds
}

TEST(DmacErrors, InvalidWriteSourceSetsErrorBit) {
  sim::Scheduler sched;
  SubCluster tca(sched, small_cluster());
  // kWrite requires the source in the chip's own internal block.
  auto t = tca.driver(0).run_chain(
      {DmaDescriptor{.src = tca.global_host(0, 0),
                     .dst = tca.global_host(1, 0),
                     .length = 4096,
                     .direction = DmaDirection::kWrite}});
  sched.run();
  ASSERT_TRUE(t.done());
  EXPECT_GT(tca.chip(0).dmac().errors(), 0u);
  EXPECT_NE(tca.chip(0).dmac().status() & 4ull, 0u);
}

TEST(DmacErrors, ErrorStopsChainButStillSignalsCompletion) {
  sim::Scheduler sched;
  SubCluster tca(sched, small_cluster());
  auto& drv = tca.driver(0);
  auto good = pattern(1024, 5);
  tca.chip(0).internal_ram().write(0, good);

  // Descriptor 2 is invalid; descriptor 3 must not run.
  auto t = drv.run_chain(
      {DmaDescriptor{.src = drv.internal_global(0),
                     .dst = drv.host_buffer_global(0x100),
                     .length = 1024,
                     .direction = DmaDirection::kWrite},
       DmaDescriptor{.src = tca.global_host(1, 0),  // remote read: invalid
                     .dst = drv.internal_global(0),
                     .length = 64,
                     .direction = DmaDirection::kRead},
       DmaDescriptor{.src = drv.internal_global(0),
                     .dst = drv.host_buffer_global(0x4000),
                     .length = 1024,
                     .direction = DmaDirection::kWrite}});
  sched.run();
  ASSERT_TRUE(t.done());  // completion interrupt still fired

  std::vector<std::byte> out(1024);
  tca.node(0).cpu().read_host(0x100, out);
  EXPECT_EQ(out, good);  // descriptor 1 executed
  tca.node(0).cpu().read_host(0x4000, out);
  EXPECT_NE(out, good);  // descriptor 3 aborted
  EXPECT_EQ(tca.chip(0).dmac().descriptors_completed(), 2u);  // 1 ok + 1 err
}

TEST(DmacErrors, ImmediateKickValidatesLength) {
  sim::Scheduler sched;
  SubCluster tca(sched, small_cluster());
  namespace r = peach2::regs;
  auto& drv = tca.driver(0);

  // Named closure: it must outlive the suspended coroutine (see above).
  auto prog_fn = [&]() -> sim::Task<> {
    co_await drv.write_register(r::dma_bank(0, r::kDmaBankImmSrc),
                                drv.internal_global(0));
    co_await drv.write_register(r::dma_bank(0, r::kDmaBankImmDst),
                                tca.global_host(1, 0));
    // Zero length: the kick latches an error instead of starting.
    co_await drv.write_register(r::dma_bank(0, r::kDmaBankImmLen), 0);
    co_await drv.write_register(r::dma_bank(0, r::kDmaBankImmKick), 1);
  };
  auto prog = prog_fn();
  sched.run();
  EXPECT_NE(tca.chip(0).dmac().status() & 4ull, 0u);  // error latched
  EXPECT_FALSE(tca.chip(0).dmac().busy());
}

TEST(DmacErrors, DoorbellWhileBusyIgnored) {
  sim::Scheduler sched;
  SubCluster tca(sched, small_cluster());
  auto& drv = tca.driver(0);
  auto data = pattern(256 << 10, 6);
  tca.chip(0).internal_ram().write(0, data);

  auto t = drv.run_chain(
      {DmaDescriptor{.src = drv.internal_global(0),
                     .dst = tca.global_host(1, 0),
                     .length = 256 << 10,
                     .direction = DmaDirection::kWrite}});
  sched.run_for(us(5));
  EXPECT_TRUE(tca.chip(0).dmac().busy());
  const auto chains_before = tca.chip(0).dmac().chains_completed();
  namespace r = peach2::regs;
  // Both ignored while the engine is busy.
  tca.chip(0).write_register(r::dma_bank(0, r::kDmaBankDoorbell), 1);
  tca.chip(0).write_register(r::dma_bank(0, r::kDmaBankImmKick), 1);
  sched.run();
  EXPECT_EQ(tca.chip(0).dmac().chains_completed(), chains_before + 1);
}

TEST(GpuFaults, UnpinnedDmaWriteDropsAndCounts) {
  sim::Scheduler sched;
  SubCluster tca(sched, small_cluster());
  auto& drv = tca.driver(0);
  auto data = pattern(4096, 7);
  tca.chip(0).internal_ram().write(0, data);

  // GPU memory never pinned: the write must be dropped at the GPU.
  auto t = drv.run_chain(
      {DmaDescriptor{.src = drv.internal_global(0),
                     .dst = drv.gpu_global(0, 0x10000),
                     .length = 4096,
                     .direction = DmaDirection::kWrite}});
  sched.run();
  ASSERT_TRUE(t.done());
  EXPECT_GT(tca.node(0).gpu(0).access_errors(), 0u);
}

}  // namespace
}  // namespace tca::fabric
