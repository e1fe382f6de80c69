// Integration tests across the whole stack: sub-cluster construction, PIO
// stores across the ring, chained DMA (local and remote, CPU and GPU
// targets), the put-only restriction, the pipelined-DMAC extension, the
// register path, and multi-hop routing.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "fabric/sub_cluster.h"
#include "peach2/registers.h"

namespace tca::fabric {
namespace {

using driver::Peach2Driver;
using peach2::DmaDescriptor;
using peach2::DmaDirection;
using peach2::TcaTarget;
using units::gbytes_per_second;
using units::ns;
using units::us;

SubClusterConfig small_cluster(TopologySpec spec) {
  return SubClusterConfig{
      .spec = spec,
      .node_config = {.gpu_count = 2,
                      .host_backing_bytes = 8 << 20,
                      .gpu_backing_bytes = 4 << 20},
  };
}

std::vector<std::byte> pattern(std::size_t n, std::uint8_t seed = 1) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((seed * 7 + i * 3) & 0xff);
  }
  return v;
}

TEST(SubCluster, BuildsRingWithRoutes) {
  sim::Scheduler sched;
  SubCluster tca(sched, small_cluster(TopologySpec::ring(4)));
  EXPECT_EQ(tca.size(), 4u);
  // Every chip has one route per other node.
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(tca.chip(i).routing().size(), 3u);
    EXPECT_TRUE(tca.chip(i).link_up(peach2::PortId::kNorth));
    EXPECT_TRUE(tca.chip(i).link_up(peach2::PortId::kEast));
    EXPECT_TRUE(tca.chip(i).link_up(peach2::PortId::kWest));
    EXPECT_FALSE(tca.chip(i).link_up(peach2::PortId::kSouth));
  }
  EXPECT_EQ(tca.hops(0, 2), 2u);
  EXPECT_EQ(tca.hops(0, 3), 1u);
}

TEST(SubCluster, PioStoreReachesRemoteHost) {
  sim::Scheduler sched;
  SubCluster tca(sched, small_cluster(TopologySpec::ring(2)));
  auto data = pattern(4, 2);

  auto t = tca.driver(0).pio_store(tca.global_host(1, 0x100), data);
  sched.run();

  std::vector<std::byte> out(4);
  tca.node(1).cpu().read_host(
      tca.driver(1).host_layout().dma_buffer_offset + 0x100, out);
  // Host block offset 0x100 lands at DMA-buffer offset 0x100 (buffer is at
  // host offset 0).
  EXPECT_EQ(out, data);
}

TEST(SubCluster, PioLatencyIsSubMicrosecond) {
  // The paper's headline: 782 ns between adjacent nodes. Store + poll.
  sim::Scheduler sched;
  SubCluster tca(sched, small_cluster(TopologySpec::ring(2)));

  std::uint32_t zero = 0;
  tca.node(1).cpu().write_host(0x100, std::as_bytes(std::span(&zero, 1)));
  auto poll = tca.node(1).cpu().poll_host_until_change(0x100, 0);

  const TimePs t0 = sched.now();
  auto store = tca.driver(0).pio_store_u32(tca.global_host(1, 0x100), 42);
  sched.run();
  ASSERT_TRUE(poll.done());
  const TimePs latency = poll.result() - t0;
  EXPECT_GT(latency, ns(500));
  EXPECT_LT(latency, ns(1100));
}

TEST(SubCluster, PioToOwnNodeLoopsBackThroughChip) {
  sim::Scheduler sched;
  SubCluster tca(sched, small_cluster(TopologySpec::ring(2)));
  auto data = pattern(8, 3);

  auto t = tca.driver(0).pio_store(tca.global_host(0, 0x40), data);
  sched.run();

  std::vector<std::byte> out(8);
  tca.node(0).cpu().read_host(0x40, out);
  EXPECT_EQ(out, data);
}

TEST(SubCluster, DmaLocalWriteToHost) {
  sim::Scheduler sched;
  SubCluster tca(sched, small_cluster(TopologySpec::ring(2)));
  Peach2Driver& drv = tca.driver(0);

  auto data = pattern(4096, 4);
  tca.chip(0).internal_ram().write(0, data);

  auto t = drv.run_chain({DmaDescriptor{.src = drv.internal_global(0),
                                        .dst = drv.host_buffer_global(0x1000),
                                        .length = 4096,
                                        .direction = DmaDirection::kWrite}});
  sched.run();
  ASSERT_TRUE(t.done());
  const TimePs elapsed = t.result();

  std::vector<std::byte> out(4096);
  tca.node(0).cpu().read_host(0x1000, out);
  EXPECT_EQ(out, data);
  // Single 4 KiB descriptor: ~2.1 us fixed + ~1.2 us transfer.
  EXPECT_GT(elapsed, us(2));
  EXPECT_LT(elapsed, us(6));
  EXPECT_EQ(tca.chip(0).dmac().errors(), 0u);
}

TEST(SubCluster, DmaLocalReadFromHost) {
  sim::Scheduler sched;
  SubCluster tca(sched, small_cluster(TopologySpec::ring(2)));
  Peach2Driver& drv = tca.driver(0);

  auto data = pattern(8192, 5);
  tca.node(0).cpu().write_host(0x4000, data);

  auto t = drv.run_chain(
      {DmaDescriptor{.src = drv.host_buffer_global(0x4000),
                     .dst = drv.internal_global(0x100),
                     .length = 8192,
                     .direction = DmaDirection::kRead}});
  sched.run();
  ASSERT_TRUE(t.done());

  std::vector<std::byte> out(8192);
  tca.chip(0).internal_ram().read(0x100, out);
  EXPECT_EQ(out, data);
}

TEST(SubCluster, DmaLocalWriteToGpuViaGpuDirect) {
  sim::Scheduler sched;
  SubCluster tca(sched, small_cluster(TopologySpec::ring(2)));
  Peach2Driver& drv = tca.driver(0);
  auto& gpu = tca.node(0).gpu(0);

  auto ptr = gpu.mem_alloc(64 << 10);
  ASSERT_TRUE(ptr.is_ok());
  ASSERT_TRUE(drv.p2p().pin(0, ptr.value(), 64 << 10).is_ok());

  auto data = pattern(4096, 6);
  tca.chip(0).internal_ram().write(0, data);

  auto t = drv.run_chain(
      {DmaDescriptor{.src = drv.internal_global(0),
                     .dst = drv.gpu_global(0, ptr.value()),
                     .length = 4096,
                     .direction = DmaDirection::kWrite}});
  sched.run();
  ASSERT_TRUE(t.done());

  std::vector<std::byte> out(4096);
  gpu.peek(ptr.value(), out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(gpu.access_errors(), 0u);
}

TEST(SubCluster, DmaReadFromGpuIsTranslationLimited) {
  sim::Scheduler sched;
  SubCluster tca(sched, small_cluster(TopologySpec::ring(2)));
  Peach2Driver& drv = tca.driver(0);
  auto& gpu = tca.node(0).gpu(0);

  constexpr std::uint32_t kLen = 256 << 10;
  auto ptr = gpu.mem_alloc(kLen);
  ASSERT_TRUE(ptr.is_ok());
  ASSERT_TRUE(drv.p2p().pin(0, ptr.value(), kLen).is_ok());
  auto data = pattern(kLen, 7);
  gpu.poke(ptr.value(), data);

  // 64 chained 4 KiB reads (steady state dominates the fixed cost).
  std::vector<DmaDescriptor> chain;
  for (std::uint32_t i = 0; i < 64; ++i) {
    chain.push_back({.src = drv.gpu_global(0, ptr.value() + i * 4096),
                     .dst = drv.internal_global(i * 4096),
                     .length = 4096,
                     .direction = DmaDirection::kRead});
  }
  auto t = drv.run_chain(std::move(chain));
  sched.run();
  ASSERT_TRUE(t.done());

  std::vector<std::byte> out(kLen);
  tca.chip(0).internal_ram().read(0, out);
  EXPECT_EQ(out, data);

  const double rate = units::bytes_per_second(kLen, t.result());
  EXPECT_LT(rate, 900e6);  // the paper's 830 MB/s GPU-read ceiling
  EXPECT_GT(rate, 600e6);
}

TEST(SubCluster, RemoteDmaWriteToHostDeliversAndAcks) {
  sim::Scheduler sched;
  SubCluster tca(sched, small_cluster(TopologySpec::ring(2)));
  Peach2Driver& drv = tca.driver(0);

  auto data = pattern(4096, 8);
  tca.chip(0).internal_ram().write(0, data);

  auto t = drv.run_chain({DmaDescriptor{.src = drv.internal_global(0),
                                        .dst = tca.global_host(1, 0x2000),
                                        .length = 4096,
                                        .direction = DmaDirection::kWrite}});
  sched.run();
  ASSERT_TRUE(t.done());

  std::vector<std::byte> out(4096);
  tca.node(1).cpu().read_host(0x2000, out);
  EXPECT_EQ(out, data);
  // The delivery notification came home.
  EXPECT_EQ(tca.chip(0).mailbox_count(), 1u);
  EXPECT_EQ(tca.chip(1).acks_sent(), 1u);
}

TEST(SubCluster, RemoteDmaWriteToGpuGetsDeliveryAck) {
  sim::Scheduler sched;
  SubCluster tca(sched, small_cluster(TopologySpec::ring(2)));
  Peach2Driver& drv = tca.driver(0);
  auto& gpu = tca.node(1).gpu(0);

  auto ptr = gpu.mem_alloc(64 << 10);
  ASSERT_TRUE(ptr.is_ok());
  ASSERT_TRUE(tca.driver(1).p2p().pin(0, ptr.value(), 64 << 10).is_ok());

  auto data = pattern(4096, 9);
  tca.chip(0).internal_ram().write(0, data);

  auto t = drv.run_chain(
      {DmaDescriptor{.src = drv.internal_global(0),
                     .dst = tca.global_gpu(1, 0, ptr.value()),
                     .length = 4096,
                     .direction = DmaDirection::kWrite}});
  sched.run();
  ASSERT_TRUE(t.done());

  std::vector<std::byte> out(4096);
  gpu.peek(ptr.value(), out);
  EXPECT_EQ(out, data);
  // Remote GPU destinations get the same end-to-end PEARL notification as
  // host destinations: without it a "reliable" put into a GPU staging
  // buffer would complete at source-egress drain with no evidence the
  // bytes ever landed (stale data under faults). The destination chip
  // sends the ack when the GDDR write actually commits.
  EXPECT_EQ(tca.chip(0).mailbox_count(), 1u);
  EXPECT_EQ(tca.chip(1).acks_sent(), 1u);
}

TEST(SubCluster, RemoteReadRejectedPutOnly) {
  sim::Scheduler sched;
  SubCluster tca(sched, small_cluster(TopologySpec::ring(2)));
  Peach2Driver& drv = tca.driver(0);

  auto t = drv.run_chain(
      {DmaDescriptor{.src = tca.global_host(1, 0),  // remote source!
                     .dst = drv.internal_global(0),
                     .length = 4096,
                     .direction = DmaDirection::kRead}});
  sched.run();
  ASSERT_TRUE(t.done());
  EXPECT_GT(tca.chip(0).dmac().errors(), 0u);
  namespace r = peach2::regs;
  EXPECT_NE(tca.chip(0).read_register(r::dma_bank(0, r::kDmaBankStatus)) & 4,
            0u);
}

TEST(SubCluster, PipelinedDescriptorMovesHostToRemoteHost) {
  sim::Scheduler sched;
  SubCluster tca(sched, small_cluster(TopologySpec::ring(2)));
  Peach2Driver& drv = tca.driver(0);

  auto data = pattern(16 << 10, 10);
  tca.node(0).cpu().write_host(0x1000, data);

  auto t = drv.run_chain(
      {DmaDescriptor{.src = drv.host_buffer_global(0x1000),
                     .dst = tca.global_host(1, 0x3000),
                     .length = 16 << 10,
                     .direction = DmaDirection::kPipelined}});
  sched.run();
  ASSERT_TRUE(t.done());

  std::vector<std::byte> out(16 << 10);
  tca.node(1).cpu().read_host(0x3000, out);
  EXPECT_EQ(out, data);
}

constexpr std::uint32_t kTwoPhaseLen = 64 << 10;

sim::Task<TimePs> run_two_phase(SubCluster& tca) {
  Peach2Driver& drv = tca.driver(0);
  const TimePs t0 = tca.node(0).cpu().scheduler().now();
  // Note: vectors are built as locals — GCC rejects initializer-list
  // temporaries spanning a co_await.
  std::vector<DmaDescriptor> phase1{
      DmaDescriptor{.src = drv.host_buffer_global(0x1000),
                    .dst = drv.internal_global(0),
                    .length = kTwoPhaseLen,
                    .direction = DmaDirection::kRead}};
  co_await drv.run_chain(std::move(phase1));
  std::vector<DmaDescriptor> phase2{
      DmaDescriptor{.src = drv.internal_global(0),
                    .dst = tca.global_host(1, 0x3000),
                    .length = kTwoPhaseLen,
                    .direction = DmaDirection::kWrite}};
  co_await drv.run_chain(std::move(phase2));
  co_return tca.node(0).cpu().scheduler().now() - t0;
}

TEST(SubCluster, PipelinedBeatsTwoPhase) {
  // The Section IV-B2 motivation: the redesigned DMAC avoids the two-phase
  // staging through internal memory.
  constexpr std::uint32_t kLen = kTwoPhaseLen;
  const auto data = pattern(kLen, 11);

  TimePs two_phase = 0, pipelined = 0;
  {
    sim::Scheduler sched;
    SubCluster tca(sched, small_cluster(TopologySpec::ring(2)));
    tca.node(0).cpu().write_host(0x1000, data);
    auto t = run_two_phase(tca);
    sched.run();
    two_phase = t.result();
    std::vector<std::byte> out(kLen);
    tca.node(1).cpu().read_host(0x3000, out);
    EXPECT_EQ(out, data);
  }
  {
    sim::Scheduler sched;
    SubCluster tca(sched, small_cluster(TopologySpec::ring(2)));
    tca.node(0).cpu().write_host(0x1000, data);
    auto t = tca.driver(0).run_chain(
        {DmaDescriptor{.src = tca.driver(0).host_buffer_global(0x1000),
                       .dst = tca.global_host(1, 0x3000),
                       .length = kLen,
                       .direction = DmaDirection::kPipelined}});
    sched.run();
    pipelined = t.result();
    std::vector<std::byte> out(kLen);
    tca.node(1).cpu().read_host(0x3000, out);
    EXPECT_EQ(out, data);
  }
  EXPECT_LT(pipelined, two_phase);
  EXPECT_LT(pipelined, two_phase * 3 / 4);  // substantial, not marginal
}

TEST(SubCluster, MultiHopLatencyGrowsWithDistance) {
  sim::Scheduler sched;
  SubCluster tca(sched, small_cluster(TopologySpec::ring(8)));

  auto measure = [&](std::uint32_t dest) {
    std::uint32_t zero = 0;
    tca.node(dest).cpu().write_host(0x100, std::as_bytes(std::span(&zero, 1)));
    auto poll = tca.node(dest).cpu().poll_host_until_change(0x100, 0);
    const TimePs t0 = sched.now();
    auto store =
        tca.driver(0).pio_store_u32(tca.global_host(dest, 0x100), 7);
    sched.run();
    return poll.result() - t0;
  };

  const TimePs one_hop = measure(1);
  const TimePs two_hops = measure(2);
  const TimePs four_hops = measure(4);
  EXPECT_GT(two_hops, one_hop);
  EXPECT_GT(four_hops, two_hops);
  // Each extra hop adds roughly route latency + cable time.
  EXPECT_NEAR(static_cast<double>(two_hops - one_hop),
              static_cast<double>(calib::kRouteLatencyPs +
                                  calib::kCableLatencyPs),
              static_cast<double>(ns(80)));
}

TEST(SubCluster, RingRoutesChooseShortestDirection) {
  sim::Scheduler sched;
  SubCluster tca(sched, small_cluster(TopologySpec::ring(8)));
  // From node 0: node 1..3 go East, node 5..7 go West (4 = tie, East).
  auto& routing = tca.chip(0).routing();
  auto port_for = [&](std::uint32_t dest) {
    return routing.lookup(tca.layout().slice_base(dest));
  };
  EXPECT_EQ(port_for(1), peach2::PortId::kEast);
  EXPECT_EQ(port_for(3), peach2::PortId::kEast);
  EXPECT_EQ(port_for(4), peach2::PortId::kEast);  // tie-break East
  EXPECT_EQ(port_for(5), peach2::PortId::kWest);
  EXPECT_EQ(port_for(7), peach2::PortId::kWest);
}

TEST(SubCluster, DualRingCrossesSouth) {
  sim::Scheduler sched;
  SubCluster tca(sched, small_cluster(TopologySpec::dual_ring(8)));
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(tca.chip(i).link_up(peach2::PortId::kSouth));
  }
  // Node 0's route to its pair (node 4) goes South.
  EXPECT_EQ(tca.chip(0).routing().lookup(tca.layout().slice_base(4)),
            peach2::PortId::kSouth);

  // Data still arrives across rings.
  auto data = pattern(4, 12);
  auto t = tca.driver(0).pio_store(tca.global_host(5, 0x80), data);
  sched.run();
  std::vector<std::byte> out(4);
  tca.node(5).cpu().read_host(0x80, out);
  EXPECT_EQ(out, data);
}

TEST(SubCluster, RegisterPathReadsChipId) {
  sim::Scheduler sched;
  SubCluster tca(sched, small_cluster(TopologySpec::ring(2)));
  auto t = tca.driver(0).read_register(peach2::regs::kChipId);
  sched.run();
  EXPECT_EQ(t.result(), peach2::regs::kChipIdValue);

  auto v = tca.driver(1).read_register(peach2::regs::kNodeId);
  sched.run();
  EXPECT_EQ(v.result(), 1u);
}

TEST(SubCluster, RegisterPathProgramsRoutingEntry) {
  sim::Scheduler sched;
  SubCluster tca(sched, small_cluster(TopologySpec::ring(2)));
  namespace r = peach2::regs;
  auto& drv = tca.driver(0);
  const std::uint64_t base = r::kRouteBase + 10 * r::kRouteStride;

  // Named closure: it must outlive the coroutine suspended on MMIO.
  auto prog_fn = [&]() -> sim::Task<> {
    co_await drv.write_register(base + r::kRouteMask, ~0xffull);
    co_await drv.write_register(base + r::kRouteLower, 0xabc00);
    co_await drv.write_register(base + r::kRouteUpper, 0xabc00);
    co_await drv.write_register(base + r::kRoutePort,
                                static_cast<std::uint64_t>(
                                    peach2::PortId::kSouth));
  };
  auto prog = prog_fn();
  sched.run();
  ASSERT_TRUE(prog.done());

  const auto& e = tca.chip(0).routing().entry(10);
  EXPECT_EQ(e.mask, ~0xffull);
  EXPECT_EQ(e.lower, 0xabc00u);
  EXPECT_EQ(e.port, peach2::PortId::kSouth);
}

TEST(SubCluster, ChainedWritesHit33GBs) {
  // The Figure 7 headline: 255 chained 4 KiB DMA writes -> 3.3 GB/s.
  sim::Scheduler sched;
  SubCluster tca(sched, small_cluster(TopologySpec::ring(2)));
  Peach2Driver& drv = tca.driver(0);

  std::vector<DmaDescriptor> chain;
  for (std::uint32_t i = 0; i < 255; ++i) {
    chain.push_back({.src = drv.internal_global((i * 4096) % (1 << 20)),
                     .dst = drv.host_buffer_global(0x1000),
                     .length = 4096,
                     .direction = DmaDirection::kWrite});
  }
  auto t = drv.run_chain(std::move(chain));
  sched.run();
  ASSERT_TRUE(t.done());

  const double gbps = gbytes_per_second(255 * 4096, t.result());
  EXPECT_NEAR(gbps, 3.3, 0.15);
}

}  // namespace
}  // namespace tca::fabric
