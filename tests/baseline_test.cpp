// Tests for the conventional-stack baseline: IB fabric timing, MPI-lite
// eager/rendezvous semantics, and the 3-copy GPU path.
#include <gtest/gtest.h>

#include <memory>

#include "baseline/collectives.h"
#include "baseline/conventional.h"
#include "baseline/ib_fabric.h"
#include "baseline/mpi_lite.h"
#include "baseline/ntb.h"

namespace tca::baseline {
namespace {

using units::ns;
using units::us;

std::vector<std::byte> pattern(std::size_t n, std::uint8_t seed = 1) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((seed * 17 + i) & 0xff);
  }
  return v;
}

struct Rig {
  explicit Rig(std::uint32_t n, int rails = 2) {
    for (std::uint32_t i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<node::ComputeNode>(
          sched, static_cast<int>(i),
          node::NodeConfig{.gpu_count = 2,
                           .host_backing_bytes = 32 << 20,
                           .gpu_backing_bytes = 8 << 20}));
    }
    std::vector<node::ComputeNode*> ptrs;
    for (auto& p : nodes) ptrs.push_back(p.get());
    fabric = std::make_unique<IbFabric>(sched, ptrs, IbConfig{.rails = rails});
    mpi = std::make_unique<MpiLite>(sched, *fabric);
    conv = std::make_unique<ConventionalGpuComm>(*mpi, ptrs);
  }
  sim::Scheduler sched;
  std::vector<std::unique_ptr<node::ComputeNode>> nodes;
  std::unique_ptr<IbFabric> fabric;
  std::unique_ptr<MpiLite> mpi;
  std::unique_ptr<ConventionalGpuComm> conv;
};

TEST(IbFabric, RdmaWriteLandsInRemoteHostMemory) {
  Rig rig(2);
  auto data = pattern(4096, 2);
  auto t = rig.fabric->rdma_write(0, 1, data, 0x1000);
  rig.sched.run();
  std::vector<std::byte> out(4096);
  rig.nodes[1]->host_dram().read(0x1000, out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(rig.fabric->messages_sent(), 1u);
}

TEST(IbFabric, LatencyMatchesVerbsConstant) {
  Rig rig(2);
  auto data = pattern(8);
  sim::Trigger delivered(rig.sched);
  auto t = rig.fabric->rdma_write_notify(0, 1, data, 0, &delivered);
  rig.sched.run();
  // 8 bytes: send time negligible, delivery dominated by verbs latency.
  EXPECT_GE(rig.sched.now(), calib::kIbRawLatencyPs);
  EXPECT_LT(rig.sched.now(), calib::kIbRawLatencyPs + ns(100));
}

TEST(IbFabric, DualRailDoublesBandwidth) {
  constexpr std::uint64_t kBytes = 8 << 20;
  auto run = [&](int rails) {
    Rig rig(2, 2);
    auto data = pattern(kBytes);
    auto t = rig.fabric->rdma_write(0, 1, data, 0, rails);
    rig.sched.run();
    return rig.sched.now();
  };
  const TimePs single = run(1);
  const TimePs dual = run(2);
  EXPECT_NEAR(static_cast<double>(single) / static_cast<double>(dual), 2.0,
              0.1);
}

TEST(IbFabric, NicSerializesConcurrentSends) {
  Rig rig(3);
  auto data = pattern(1 << 20);
  auto t1 = rig.fabric->rdma_write(0, 1, data, 0);
  auto t2 = rig.fabric->rdma_write(0, 2, data, 0);
  rig.sched.run();
  // Two 1 MiB sends through one NIC: at least 2x the single-send time.
  const double wire_s = 2.0 * (1 << 20) / (2 * calib::kIbBytesPerSecPerRail);
  EXPECT_GE(units::to_s(rig.sched.now()), wire_s * 0.99);
}

TEST(MpiLite, EagerSendRecvRoundTrip) {
  Rig rig(2);
  auto data = pattern(1024, 3);
  auto tx = rig.mpi->send(0, 1, 7, data);
  auto rx = rig.mpi->recv(1, 0, 7);
  rig.sched.run();
  ASSERT_TRUE(rx.done());
  EXPECT_EQ(rx.result(), data);
  EXPECT_EQ(rig.mpi->eager_sends(), 1u);
  EXPECT_EQ(rig.mpi->rendezvous_sends(), 0u);
}

TEST(MpiLite, RecvBeforeSendMatches) {
  Rig rig(2);
  auto rx = rig.mpi->recv(1, 0, 9);
  auto data = pattern(256, 4);
  rig.sched.schedule_at(us(3), [&] {
    sim::spawn([](MpiLite& mpi, std::span<const std::byte> d) -> sim::Task<> {
      co_await mpi.send(0, 1, 9, d);
    }(*rig.mpi, data));
  });
  rig.sched.run();
  ASSERT_TRUE(rx.done());
  EXPECT_EQ(rx.result(), data);
}

TEST(MpiLite, LargeMessagesUseRendezvous) {
  Rig rig(2);
  auto data = pattern(256 << 10, 5);
  auto tx = rig.mpi->send(0, 1, 1, data);
  auto rx = rig.mpi->recv(1, 0, 1);
  rig.sched.run();
  EXPECT_EQ(rx.result(), data);
  EXPECT_EQ(rig.mpi->rendezvous_sends(), 1u);
}

TEST(MpiLite, TagsKeepStreamsSeparate) {
  Rig rig(2);
  auto a = pattern(64, 6), b = pattern(64, 7);
  auto t1 = rig.mpi->send(0, 1, 100, a);
  auto t2 = rig.mpi->send(0, 1, 200, b);
  auto r2 = rig.mpi->recv(1, 0, 200);
  auto r1 = rig.mpi->recv(1, 0, 100);
  rig.sched.run();
  EXPECT_EQ(r1.result(), a);
  EXPECT_EQ(r2.result(), b);
}

TEST(MpiLite, EagerLatencyIsMicroseconds) {
  // The protocol stack the TCA eliminates: ~1.3 us + copies for a short
  // message, versus PEACH2's sub-microsecond PIO.
  Rig rig(2);
  auto data = pattern(8, 8);
  auto tx = rig.mpi->send(0, 1, 2, data);
  auto rx = rig.mpi->recv(1, 0, 2);
  rig.sched.run();
  EXPECT_GT(rig.sched.now(), ns(900));
  EXPECT_LT(rig.sched.now(), us(4));
}

TEST(Conventional, ThreeCopyPathMovesGpuData) {
  Rig rig(2);
  auto& src_gpu = rig.nodes[0]->gpu(0);
  auto& dst_gpu = rig.nodes[1]->gpu(0);
  auto data = pattern(64 << 10, 11);
  src_gpu.poke(0x1000, data);

  auto tx = rig.conv->send_gpu(0, 0, 0x1000, data.size(), 1, 3);
  auto rx = rig.conv->recv_gpu(1, 0, 0x2000, data.size(), 0, 3);
  rig.sched.run();
  ASSERT_TRUE(tx.done() && rx.done());

  std::vector<std::byte> out(data.size());
  dst_gpu.peek(0x2000, out);
  EXPECT_EQ(out, data);
}

TEST(Conventional, SmallMessageLatencyIsTensOfMicroseconds) {
  // The motivation in Section I: "the latency caused by multiple memory
  // copies severely degrades the performance, especially ... short message".
  Rig rig(2);
  auto data = pattern(64, 12);
  rig.nodes[0]->gpu(0).poke(0, data);
  auto tx = rig.conv->send_gpu(0, 0, 0, 64, 1, 4);
  auto rx = rig.conv->recv_gpu(1, 0, 0, 64, 0, 4);
  rig.sched.run();
  // Two cudaMemcpy overheads (~7 us each) dominate.
  EXPECT_GT(rig.sched.now(), us(14));
  EXPECT_LT(rig.sched.now(), us(30));
}

TEST(Collectives, AllreduceSumMatchesReference) {
  constexpr std::uint32_t kRanks = 4;
  constexpr std::size_t kElems = 64;
  Rig rig(kRanks);
  Collectives coll(*rig.mpi, kRanks);

  std::vector<std::vector<double>> data(kRanks);
  std::vector<double> reference(kElems, 0.0);
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    data[r].resize(kElems);
    for (std::size_t i = 0; i < kElems; ++i) {
      data[r][i] = static_cast<double>((r + 1) * 100 + i);
      reference[i] += data[r][i];
    }
  }
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    sim::spawn([](Collectives& c, std::uint32_t rank,
                  std::span<double> d) -> sim::Task<> {
      co_await c.allreduce_sum(rank, d);
    }(coll, r, std::span(data[r])));
  }
  rig.sched.run();
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    for (std::size_t i = 0; i < kElems; ++i) {
      EXPECT_DOUBLE_EQ(data[r][i], reference[i])
          << "rank " << r << " elem " << i;
    }
  }
}

TEST(Conventional, PipelinedOverlapBeatsPlainForLargeTransfers) {
  constexpr std::uint64_t kBytes = 4 << 20;
  auto run = [&](bool pipelined) {
    Rig rig(2);
    auto data = pattern(kBytes, 13);
    rig.nodes[0]->gpu(0).poke(0, data);
    sim::Task<> tx = pipelined
                         ? rig.conv->send_gpu_pipelined(0, 0, 0, kBytes, 1, 5)
                         : rig.conv->send_gpu(0, 0, 0, kBytes, 1, 5);
    sim::Task<> rx = pipelined
                         ? rig.conv->recv_gpu_pipelined(1, 0, 0, kBytes, 0, 5)
                         : rig.conv->recv_gpu(1, 0, 0, kBytes, 0, 5);
    rig.sched.run();
    std::vector<std::byte> out(kBytes);
    rig.nodes[1]->gpu(0).peek(0, out);
    EXPECT_EQ(out, data);
    return rig.sched.now();
  };
  const TimePs plain = run(false);
  const TimePs pipelined = run(true);
  EXPECT_LT(pipelined, plain);
}

class CollectiveScale : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CollectiveScale, AllreduceCorrectAtEveryRankCount) {
  const std::uint32_t ranks = GetParam();
  Rig rig(ranks);
  Collectives coll(*rig.mpi, ranks);

  const std::size_t elems = 16 * ranks;
  std::vector<std::vector<double>> data(ranks);
  std::vector<double> reference(elems, 0.0);
  for (std::uint32_t r = 0; r < ranks; ++r) {
    data[r].resize(elems);
    for (std::size_t i = 0; i < elems; ++i) {
      data[r][i] = static_cast<double>(r * 7 + i);
      reference[i] += data[r][i];
    }
    sim::spawn([](Collectives& c, std::uint32_t rank,
                  std::span<double> d) -> sim::Task<> {
      co_await c.allreduce_sum(rank, d);
    }(coll, r, std::span(data[r])));
  }
  rig.sched.run();
  for (std::uint32_t r = 0; r < ranks; ++r) {
    for (std::size_t i = 0; i < elems; ++i) {
      ASSERT_DOUBLE_EQ(data[r][i], reference[i])
          << "rank " << r << " elem " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectiveScale,
                         ::testing::Values(2, 3, 4, 8, 16));

// --- NTB (Section V related work) ---------------------------------------------

TEST(Ntb, WriteTranslatesIntoPeerHostMemory) {
  Rig rig(2);
  NtbBridge ntb(rig.sched, *rig.nodes[0], *rig.nodes[1],
                NtbConfig{.peer_window_offset = 0x10000});
  auto data = pattern(256, 14);
  auto t = rig.nodes[0]->cpu().mmio_store(NtbBridge::kApertureBase + 0x40,
                                          data);
  rig.sched.run();

  std::vector<std::byte> out(256);
  rig.nodes[1]->host_dram().read(0x10000 + 0x40, out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(ntb.forwarded_tlps(), 1u);
}

TEST(Ntb, BothDirectionsWork) {
  Rig rig(2);
  NtbBridge ntb(rig.sched, *rig.nodes[0], *rig.nodes[1]);
  auto a = pattern(64, 15), b = pattern(64, 16);
  auto t0 = rig.nodes[0]->cpu().mmio_store(NtbBridge::kApertureBase, a);
  auto t1 =
      rig.nodes[1]->cpu().mmio_store(NtbBridge::kApertureBase + 4096, b);
  rig.sched.run();

  std::vector<std::byte> out(64);
  rig.nodes[1]->host_dram().read(0, out);
  EXPECT_EQ(out, a);
  rig.nodes[0]->host_dram().read(4096, out);
  EXPECT_EQ(out, b);
}

TEST(Ntb, DisconnectWedgesTheAccessingNode) {
  // "disconnection of the node causes a system reboot" — the property
  // PEACH2 avoids (compare Fault.HostChipConnectionSurvivesFabricLinkLoss).
  Rig rig(2);
  NtbBridge ntb(rig.sched, *rig.nodes[0], *rig.nodes[1]);
  ntb.set_link_up(false);

  auto data = pattern(8, 17);
  auto t = rig.nodes[0]->cpu().mmio_store(NtbBridge::kApertureBase, data);
  rig.sched.run();

  EXPECT_TRUE(ntb.hung(0));
  EXPECT_FALSE(ntb.hung(1));

  // Restoring the link does NOT recover the node; only a reboot does.
  ntb.set_link_up(true);
  EXPECT_TRUE(ntb.hung(0));
  ntb.reboot(0);
  EXPECT_FALSE(ntb.hung(0));
}

TEST(Ntb, ReadsAcrossBridgeUnsupported) {
  Rig rig(2);
  NtbBridge ntb(rig.sched, *rig.nodes[0], *rig.nodes[1]);
  auto t = rig.nodes[0]->cpu().mmio_load(NtbBridge::kApertureBase, 8);
  rig.sched.run_for(us(50));
  EXPECT_EQ(ntb.dropped_tlps(), 1u);
  EXPECT_FALSE(t.done());  // the load never completes (no Cpl path)
}

}  // namespace
}  // namespace tca::baseline
