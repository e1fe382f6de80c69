// Multi-channel DMAC tests: independent per-channel state, concurrent
// chains from one driver, tag-window isolation, the auto-acquire path, and
// the register banks.
#include <gtest/gtest.h>

#include "api/tca.h"
#include "common/rng.h"
#include "fabric/sub_cluster.h"
#include "peach2/registers.h"

namespace tca::driver {
namespace {

using fabric::SubCluster;
using fabric::SubClusterConfig;
using peach2::DmaDescriptor;
using peach2::DmaDirection;
namespace regs = peach2::regs;
using units::us;

struct Rig {
  Rig(std::uint32_t nodes = 2)
      : cluster(sched, SubClusterConfig{
                           .spec = fabric::TopologySpec::ring(nodes),
                           .node_config = {.gpu_count = 2,
                                           .host_backing_bytes = 16 << 20,
                                           .gpu_backing_bytes = 4 << 20}}) {
    Rng rng(9);
    std::vector<std::byte> fill(cluster.chip(0).internal_ram().size());
    rng.fill(fill);
    cluster.chip(0).internal_ram().write(0, fill);
  }
  sim::Scheduler sched;
  SubCluster cluster;
};

TEST(Channels, ChipExposesFourIndependentEngines) {
  Rig rig;
  for (int ch = 0; ch < calib::kDmaChannels; ++ch) {
    EXPECT_EQ(rig.cluster.chip(0).dmac(ch).channel(), ch);
    EXPECT_FALSE(rig.cluster.chip(0).dmac(ch).busy());
  }
}

TEST(Channels, ConcurrentChainsOnDistinctChannels) {
  Rig rig;
  Peach2Driver& drv = rig.cluster.driver(0);
  auto& tca = rig.cluster;

  // Four chains, one per channel, all remote writes to distinct regions.
  std::vector<sim::Task<TimePs>> tasks;
  for (int ch = 0; ch < calib::kDmaChannels; ++ch) {
    std::vector<DmaDescriptor> chain{DmaDescriptor{
        .src = drv.internal_global(static_cast<std::uint64_t>(ch) << 16),
        .dst = tca.global_host(1, static_cast<std::uint64_t>(ch) << 16),
        .length = 32 << 10,
        .direction = DmaDirection::kWrite}};
    tasks.push_back(drv.run_chain(std::move(chain), ch));
  }
  rig.sched.run();

  std::vector<std::byte> got(32 << 10), want(32 << 10);
  for (int ch = 0; ch < calib::kDmaChannels; ++ch) {
    ASSERT_TRUE(tasks[static_cast<std::size_t>(ch)].done());
    tca.node(1).cpu().read_host(static_cast<std::uint64_t>(ch) << 16, got);
    tca.chip(0).internal_ram().read(static_cast<std::uint64_t>(ch) << 16,
                                    want);
    EXPECT_EQ(got, want) << "channel " << ch;
    EXPECT_EQ(tca.chip(0).dmac(ch).chains_completed(), 1u);
  }
}

TEST(Channels, ConcurrentChainsOverlapInTime) {
  // One big chain alone vs two big chains concurrently: the concurrent run
  // must finish in far less than 2x the solo time (they share the wire but
  // overlap fixed costs and pipeline stages).
  auto run = [](int chains) {
    Rig rig;
    Peach2Driver& drv = rig.cluster.driver(0);
    std::vector<sim::Task<TimePs>> tasks;
    for (int c = 0; c < chains; ++c) {
      std::vector<DmaDescriptor> chain;
      for (std::uint32_t i = 0; i < 64; ++i) {
        chain.push_back(
            {.src = drv.internal_global(
                 (static_cast<std::uint64_t>(c) * 64 + i) * 4096),
             .dst = rig.cluster.global_host(
                 1, (static_cast<std::uint64_t>(c) * 64 + i) * 4096),
             .length = 4096,
             .direction = DmaDirection::kWrite});
      }
      tasks.push_back(drv.run_chain(std::move(chain), c));
    }
    rig.sched.run();
    return rig.sched.now();
  };
  const TimePs solo = run(1);
  const TimePs dual = run(2);
  EXPECT_LT(dual, solo * 21 / 10);  // wire-shared but overlapped
  EXPECT_GT(dual, solo);            // they do share the one x8 link
}

TEST(Channels, AutoAcquireRunsMoreChainsThanChannels) {
  Rig rig;
  Peach2Driver& drv = rig.cluster.driver(0);
  int completed = 0;
  for (int i = 0; i < 10; ++i) {
    sim::spawn([](Peach2Driver& d, fabric::SubCluster& tca, int idx,
                  int& done) -> sim::Task<> {
      std::vector<DmaDescriptor> chain{DmaDescriptor{
          .src = d.internal_global(static_cast<std::uint64_t>(idx) * 8192),
          .dst = tca.global_host(1, static_cast<std::uint64_t>(idx) * 8192),
          .length = 8192,
          .direction = DmaDirection::kWrite}};
      co_await d.run_chain_reliable(std::move(chain));
      ++done;
    }(drv, rig.cluster, i, completed));
  }
  rig.sched.run();
  EXPECT_EQ(completed, 10);

  std::vector<std::byte> got(8192), want(8192);
  for (int i = 0; i < 10; ++i) {
    rig.cluster.node(1).cpu().read_host(static_cast<std::uint64_t>(i) * 8192,
                                        got);
    rig.cluster.chip(0).internal_ram().read(
        static_cast<std::uint64_t>(i) * 8192, want);
    EXPECT_EQ(got, want) << "chain " << i;
  }
}

TEST(Channels, RegisterBanksAreIndependent) {
  Rig rig;
  auto& chip = rig.cluster.chip(0);
  chip.write_register(regs::dma_bank(2, regs::kDmaBankTableAddr), 0x1111);
  chip.write_register(regs::dma_bank(3, regs::kDmaBankWriteback), 0x2222);
  EXPECT_EQ(chip.read_register(regs::dma_bank(3, regs::kDmaBankWriteback)),
            0x2222u);
  EXPECT_EQ(chip.read_register(regs::dma_bank(2, regs::kDmaBankWriteback)),
            0u);
  // Status registers are per channel.
  EXPECT_EQ(chip.read_register(regs::dma_bank(1, regs::kDmaBankStatus)), 0u);
}

TEST(Channels, ErrorOnOneChannelDoesNotPoisonOthers) {
  Rig rig;
  Peach2Driver& drv = rig.cluster.driver(0);
  // Channel 1: invalid chain (remote read).
  auto bad = drv.run_chain(
      {DmaDescriptor{.src = rig.cluster.global_host(1, 0),
                     .dst = drv.internal_global(0),
                     .length = 64,
                     .direction = DmaDirection::kRead}},
      1);
  rig.sched.run();
  EXPECT_NE(rig.cluster.chip(0).dmac(1).status() & regs::kDmaStatusError, 0u);
  EXPECT_EQ(rig.cluster.chip(0).dmac(0).status() & regs::kDmaStatusError, 0u);

  // Channel 0 still works; the reliable path reports success.
  auto ok = drv.run_chain_reliable(
      {DmaDescriptor{.src = drv.internal_global(0),
                     .dst = rig.cluster.global_host(1, 0),
                     .length = 4096,
                     .direction = DmaDirection::kWrite}});
  rig.sched.run();
  EXPECT_TRUE(ok.result().status.is_ok());
}

TEST(Channels, RemoteAcksRouteToTheOwningChannel) {
  // Two channels issue remote host writes concurrently: each delivery
  // notification must come home to its own channel (tag-window dispatch).
  Rig rig;
  Peach2Driver& drv = rig.cluster.driver(0);
  auto a = drv.run_chain(
      {DmaDescriptor{.src = drv.internal_global(0),
                     .dst = rig.cluster.global_host(1, 0),
                     .length = 4096,
                     .direction = DmaDirection::kWrite}},
      0);
  auto b = drv.run_chain(
      {DmaDescriptor{.src = drv.internal_global(8192),
                     .dst = rig.cluster.global_host(1, 8192),
                     .length = 4096,
                     .direction = DmaDirection::kWrite}},
      1);
  rig.sched.run();
  ASSERT_TRUE(a.done() && b.done());
  EXPECT_EQ(rig.cluster.chip(0).mailbox_count(), 2u);
  EXPECT_EQ(rig.cluster.chip(0).dmac(0).errors(), 0u);
  EXPECT_EQ(rig.cluster.chip(0).dmac(1).errors(), 0u);
}

TEST(Channels, ConcurrentMemcpyPeerFromOneNodeViaApi) {
  // Before multi-channel support, two in-flight memcpy_peer calls from one
  // node tripped the single-engine assertion; now they overlap on separate
  // channels.
  sim::Scheduler sched;
  api::Runtime rt(sched,
                  api::TcaConfig{.spec = fabric::TopologySpec::ring(2),
                                 .node_config = {.gpu_count = 2,
                                                 .host_backing_bytes =
                                                     16ull << 20,
                                                 .gpu_backing_bytes =
                                                     4ull << 20}});
  auto src = rt.alloc_host(0, 256 << 10).value();
  auto dst = rt.alloc_host(1, 256 << 10).value();
  std::vector<std::byte> a(64 << 10, std::byte{0xAA});
  std::vector<std::byte> b(64 << 10, std::byte{0xBB});
  rt.write(src, 0, a);
  rt.write(src, 128 << 10, b);

  int done = 0;
  for (int i = 0; i < 2; ++i) {
    sim::spawn([](api::Runtime& r, api::Buffer d, api::Buffer s,
                  std::uint64_t off, int& n) -> sim::Task<> {
      const Status st = co_await r.memcpy_peer(d, off, s, off, 64 << 10);
      EXPECT_TRUE(st.is_ok()) << st.to_string();
      ++n;
    }(rt, dst, src, static_cast<std::uint64_t>(i) * (128 << 10), done));
  }
  sched.run();
  EXPECT_EQ(done, 2);
  std::vector<std::byte> out(64 << 10);
  rt.read(dst, 0, out);
  EXPECT_EQ(out, a);
  rt.read(dst, 128 << 10, out);
  EXPECT_EQ(out, b);
}

}  // namespace
}  // namespace tca::driver
