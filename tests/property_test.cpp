// Property-based tests (parameterized sweeps over seeds/sizes).
//
// Each suite checks an invariant against a reference model under randomized
// inputs: DMA chains vs a memcpy reference, routing delivery across ring
// sizes, link FIFO/content preservation, layout round-trips, RangeMap vs
// brute force, scheduler ordering, and MPI traffic integrity.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.h"
#include "fabric/sub_cluster.h"
#include "memory/range_map.h"
#include "pcie/link.h"
#include "sim/scheduler.h"

namespace tca {
namespace {

using fabric::SubCluster;
using fabric::SubClusterConfig;
using peach2::DmaDescriptor;
using peach2::DmaDirection;

// --- Random DMA chains vs reference model -----------------------------------

class RandomDmaChains : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomDmaChains, MatchesMemcpyReference) {
  Rng rng(GetParam());
  sim::Scheduler sched;
  SubCluster tca(sched, SubClusterConfig{
                            .spec = fabric::TopologySpec::ring(2),
                            .node_config = {.gpu_count = 2,
                                            .host_backing_bytes = 8 << 20,
                                            .gpu_backing_bytes = 4 << 20}});
  driver::Peach2Driver& drv = tca.driver(0);

  // Stage random contents everywhere a descriptor may read from, and pin
  // GPU windows on both nodes.
  std::vector<std::byte> ram_img(tca.chip(0).internal_ram().size());
  rng.fill(ram_img);
  tca.chip(0).internal_ram().write(0, ram_img);

  constexpr std::uint64_t kRegion = 1 << 20;
  std::vector<std::byte> host0(kRegion), gpu0(kRegion);
  rng.fill(host0);
  rng.fill(gpu0);
  tca.node(0).host_dram().write(0, host0);
  for (std::uint32_t n = 0; n < 2; ++n) {
    for (int g = 0; g < 2; ++g) {
      auto& gpu = tca.node(n).gpu(g);
      auto ptr = gpu.mem_alloc(kRegion);
      ASSERT_TRUE(ptr.is_ok());
      ASSERT_TRUE(tca.driver(n).p2p().pin(g, ptr.value(), kRegion).is_ok());
    }
  }
  tca.node(0).gpu(0).poke(0, gpu0);

  // Expected images for every destination region.
  std::vector<std::byte> exp_ram = ram_img;
  std::map<std::pair<int, int>, std::vector<std::byte>> exp;  // {node,tgt}
  exp[{0, 0}] = gpu0;                                // node0 gpu0
  exp[{0, 1}] = std::vector<std::byte>(kRegion);     // node0 gpu1 (zero)
  exp[{0, 2}] = host0;                               // node0 host
  exp[{1, 0}] = std::vector<std::byte>(kRegion);
  exp[{1, 1}] = std::vector<std::byte>(kRegion);
  exp[{1, 2}] = std::vector<std::byte>(kRegion);

  // Build a random chain with disjoint slices (cursor per region).
  std::uint64_t ram_src_cursor = 0;                  // write sources
  std::uint64_t ram_dst_cursor = ram_img.size() / 2; // read destinations
  std::map<std::pair<int, int>, std::uint64_t> dst_cursor;  // per dst region
  std::uint64_t src_cursor = 0;  // shared cursor for host/gpu read sources

  std::vector<DmaDescriptor> chain;
  const std::uint32_t count = 1 + static_cast<std::uint32_t>(
      rng.next_below(16));
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto len =
        static_cast<std::uint32_t>(1 + rng.next_below(6000));
    const auto dir = static_cast<DmaDirection>(rng.next_below(3));
    DmaDescriptor d{.length = len, .direction = dir};

    auto pick_dst = [&](bool allow_remote) {
      const int node =
          allow_remote ? static_cast<int>(rng.next_below(2)) : 0;
      const int tgt = static_cast<int>(rng.next_below(3));  // gpu0/gpu1/host
      auto& cur = dst_cursor[{node, tgt}];
      // Destinations live in the upper half of each region so they can
      // never collide with (still-unread) source slices in the lower half.
      if (cur == 0) cur = kRegion / 2;
      const std::uint64_t off = cur;
      cur += len + 64;
      const auto target = tgt == 2 ? peach2::TcaTarget::kHost
                          : tgt == 0 ? peach2::TcaTarget::kGpu0
                                     : peach2::TcaTarget::kGpu1;
      return std::tuple(node, tgt, off,
                        tca.layout().encode(static_cast<std::uint32_t>(node),
                                            target, off));
    };
    auto pick_src = [&] {
      // Local host or local gpu0 (both staged with known contents); source
      // slices stay in the lower half of the region (see pick_dst).
      const bool host = rng.next_below(2) == 0;
      const std::uint64_t off = src_cursor;
      src_cursor += len + 64;
      EXPECT_LT(off + len, kRegion / 2);
      return std::tuple(
          host, off,
          tca.layout().encode(0,
                              host ? peach2::TcaTarget::kHost
                                   : peach2::TcaTarget::kGpu0,
                              off));
    };

    switch (dir) {
      case DmaDirection::kWrite: {
        const std::uint64_t src_off = ram_src_cursor;
        ram_src_cursor += len + 64;
        ASSERT_LT(src_off + len, ram_img.size() / 2);
        d.src = drv.internal_global(src_off);
        auto [node, tgt, off, addr] = pick_dst(true);
        ASSERT_LT(off + len, kRegion);
        d.dst = addr;
        std::copy_n(ram_img.begin() + static_cast<std::ptrdiff_t>(src_off),
                    len,
                    exp[{node, tgt}].begin() +
                        static_cast<std::ptrdiff_t>(off));
        break;
      }
      case DmaDirection::kRead: {
        auto [from_host, soff, saddr] = pick_src();
        ASSERT_LT(soff + len, kRegion);
        d.src = saddr;
        const std::uint64_t doff = ram_dst_cursor;
        ram_dst_cursor += len + 64;
        ASSERT_LT(doff + len, exp_ram.size());
        d.dst = drv.internal_global(doff);
        const auto& src_img = from_host ? host0 : gpu0;
        std::copy_n(src_img.begin() + static_cast<std::ptrdiff_t>(soff),
                    len,
                    exp_ram.begin() + static_cast<std::ptrdiff_t>(doff));
        break;
      }
      case DmaDirection::kPipelined: {
        auto [from_host, soff, saddr] = pick_src();
        ASSERT_LT(soff + len, kRegion);
        d.src = saddr;
        auto [node, tgt, off, addr] = pick_dst(true);
        ASSERT_LT(off + len, kRegion);
        d.dst = addr;
        const auto& src_img = from_host ? host0 : gpu0;
        std::copy_n(src_img.begin() + static_cast<std::ptrdiff_t>(soff),
                    len,
                    exp[{node, tgt}].begin() +
                        static_cast<std::ptrdiff_t>(off));
        break;
      }
    }
    chain.push_back(d);
  }

  auto t = drv.run_chain(std::move(chain));
  sched.run();
  ASSERT_TRUE(t.done());
  ASSERT_EQ(tca.chip(0).dmac().errors(), 0u);

  // Compare every region against the reference.
  std::vector<std::byte> got(kRegion);
  for (const auto& [key, image] : exp) {
    const auto [node, tgt] = key;
    auto& n = tca.node(static_cast<std::uint32_t>(node));
    if (tgt == 2) {
      n.host_dram().read(0, got);
    } else {
      n.gpu(tgt).peek(0, got);
    }
    EXPECT_EQ(got, image) << "region node" << node << " tgt" << tgt;
  }
  std::vector<std::byte> got_ram(exp_ram.size());
  tca.chip(0).internal_ram().read(0, got_ram);
  EXPECT_EQ(got_ram, exp_ram);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDmaChains,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

// --- Concurrent multi-channel chains vs reference ------------------------------

class ConcurrentChannels : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConcurrentChannels, DisjointRandomChainsAllLandCorrectly) {
  Rng rng(GetParam() * 7919);
  sim::Scheduler sched;
  SubCluster tca(sched, SubClusterConfig{
                            .spec = fabric::TopologySpec::ring(2),
                            .node_config = {.gpu_count = 2,
                                            .host_backing_bytes = 16 << 20,
                                            .gpu_backing_bytes = 4 << 20}});
  driver::Peach2Driver& drv = tca.driver(0);

  std::vector<std::byte> ram_img(tca.chip(0).internal_ram().size());
  rng.fill(ram_img);
  tca.chip(0).internal_ram().write(0, ram_img);

  // Each channel owns a disjoint 256 KiB window of the remote host region.
  constexpr std::uint64_t kWindow = 256 << 10;
  std::vector<std::byte> expected(calib::kDmaChannels * kWindow,
                                  std::byte{0});
  std::vector<sim::Task<TimePs>> tasks;
  for (int ch = 0; ch < calib::kDmaChannels; ++ch) {
    std::vector<peach2::DmaDescriptor> chain;
    std::uint64_t cursor = 0;
    const std::uint32_t count = 1 + static_cast<std::uint32_t>(
        rng.next_below(12));
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto len =
          static_cast<std::uint32_t>(1 + rng.next_below(9000));
      if (cursor + len > kWindow) break;
      const std::uint64_t src_off =
          static_cast<std::uint64_t>(ch) * kWindow + cursor;
      const std::uint64_t dst_abs =
          static_cast<std::uint64_t>(ch) * kWindow + cursor;
      chain.push_back({.src = drv.internal_global(src_off),
                       .dst = tca.global_host(1, dst_abs),
                       .length = len,
                       .direction = peach2::DmaDirection::kWrite});
      std::copy_n(ram_img.begin() + static_cast<std::ptrdiff_t>(src_off),
                  len,
                  expected.begin() + static_cast<std::ptrdiff_t>(dst_abs));
      cursor += len + 64;
    }
    if (chain.empty()) continue;
    tasks.push_back(drv.run_chain(std::move(chain), ch));
  }
  sched.run();
  for (auto& t : tasks) ASSERT_TRUE(t.done());

  std::vector<std::byte> got(expected.size());
  tca.node(1).cpu().read_host(0, got);
  EXPECT_EQ(got, expected);
  for (int ch = 0; ch < calib::kDmaChannels; ++ch) {
    EXPECT_EQ(tca.chip(0).dmac(ch).errors(), 0u) << "channel " << ch;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConcurrentChannels,
                         ::testing::Values(101, 202, 303, 404, 505));

// --- Ring delivery across sizes ----------------------------------------------

class RingDelivery : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RingDelivery, AllToAllPioStoresArrive) {
  const std::uint32_t n = GetParam();
  sim::Scheduler sched;
  SubCluster tca(sched, SubClusterConfig{
                            .spec = fabric::TopologySpec::ring(n),
                            .node_config = {.gpu_count = 0,
                                            .host_backing_bytes = 4 << 20,
                                            .gpu_backing_bytes = 1 << 20}});
  // Every node stores a unique word into every other node.
  for (std::uint32_t from = 0; from < n; ++from) {
    for (std::uint32_t to = 0; to < n; ++to) {
      if (from == to) continue;
      const std::uint32_t value = 0xA000'0000u | (from << 8) | to;
      auto t = tca.driver(from).pio_store_u32(
          tca.global_host(to, 0x1000 + from * 8), value);
      (void)t;
      sched.run();
    }
  }
  for (std::uint32_t from = 0; from < n; ++from) {
    for (std::uint32_t to = 0; to < n; ++to) {
      if (from == to) continue;
      std::uint32_t got = 0;
      tca.node(to).cpu().read_host(0x1000 + from * 8,
                                   std::as_writable_bytes(
                                       std::span(&got, 1)));
      EXPECT_EQ(got, 0xA000'0000u | (from << 8) | to)
          << from << " -> " << to;
    }
  }
  // Nothing was dropped anywhere.
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(tca.chip(i).dropped_tlps(), 0u) << "chip " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(RingSizes, RingDelivery,
                         ::testing::Values(2, 4, 8, 16));

class DualRingDelivery : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(DualRingDelivery, AllToAllAcrossRings) {
  const std::uint32_t n = GetParam();
  sim::Scheduler sched;
  SubCluster tca(sched, SubClusterConfig{
                            .spec = fabric::TopologySpec::dual_ring(n),
                            .node_config = {.gpu_count = 0,
                                            .host_backing_bytes = 4 << 20,
                                            .gpu_backing_bytes = 1 << 20}});
  for (std::uint32_t from = 0; from < n; ++from) {
    for (std::uint32_t to = 0; to < n; ++to) {
      if (from == to) continue;
      auto t = tca.driver(from).pio_store_u32(
          tca.global_host(to, 0x2000 + from * 8), from * 100 + to);
      (void)t;
      sched.run();
    }
  }
  for (std::uint32_t from = 0; from < n; ++from) {
    for (std::uint32_t to = 0; to < n; ++to) {
      if (from == to) continue;
      std::uint32_t got = ~0u;
      tca.node(to).cpu().read_host(0x2000 + from * 8,
                                   std::as_writable_bytes(
                                       std::span(&got, 1)));
      EXPECT_EQ(got, from * 100 + to) << from << " -> " << to;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(DualRingSizes, DualRingDelivery,
                         ::testing::Values(4, 8, 16));

// --- Link order/content preservation ------------------------------------------

class LinkFifo : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LinkFifo, RandomBurstArrivesInOrderIntact) {
  Rng rng(GetParam());
  sim::Scheduler sched;
  pcie::PcieLink link(sched, {.gen = 2, .lanes = 8, .rx_buffer_bytes = 2048});

  struct Sink : pcie::TlpSink {
    void on_tlp(pcie::TlpPtr tlp, pcie::LinkPort& port) override {
      port.release_rx(tlp->wire_bytes());
      received.push_back(std::move(tlp));
    }
    std::vector<pcie::TlpPtr> received;
  } sink;
  link.end_b().set_sink(&sink);

  std::vector<std::vector<std::byte>> payloads;
  std::vector<pcie::TlpPtr> to_send;
  const std::size_t count = 20 + rng.next_below(60);
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<std::byte> payload(1 + rng.next_below(256));
    rng.fill(payload);
    to_send.push_back(pcie::Tlp::mem_write(i * 0x1000, payload));
    payloads.push_back(std::move(payload));
  }
  std::size_t next = 0;
  std::function<void()> pump = [&] {
    while (next < count && link.end_a().can_send(*to_send[next])) {
      link.end_a().send(std::move(to_send[next]));
      ++next;
    }
  };
  link.end_a().set_tx_ready(pump);
  pump();
  sched.run();

  ASSERT_EQ(sink.received.size(), count);
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(sink.received[i]->address, i * 0x1000) << i;
    EXPECT_TRUE(std::ranges::equal(sink.received[i]->payload, payloads[i]))
        << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinkFifo, ::testing::Values(7, 77, 777));

// --- TcaLayout round trip -------------------------------------------------------

class LayoutRoundTrip : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(LayoutRoundTrip, RandomEncodeDecode) {
  const std::uint32_t nodes = GetParam();
  auto layout = peach2::TcaLayout::create(calib::kTcaWindowBase,
                                          calib::kTcaWindowBytes, nodes)
                    .value();
  Rng rng(nodes * 1000 + 7);
  for (int i = 0; i < 2000; ++i) {
    const auto node = static_cast<std::uint32_t>(rng.next_below(nodes));
    const auto target = static_cast<peach2::TcaTarget>(rng.next_below(4));
    const std::uint64_t offset = rng.next_below(layout.block_size());
    const std::uint64_t addr = layout.encode(node, target, offset);
    auto loc = layout.decode(addr);
    ASSERT_TRUE(loc.has_value());
    EXPECT_EQ(loc->node, node);
    EXPECT_EQ(loc->target, target);
    EXPECT_EQ(loc->offset, offset);
  }
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, LayoutRoundTrip,
                         ::testing::Values(1, 2, 4, 8, 16));

// --- RangeMap vs brute force ----------------------------------------------------

TEST(RangeMapProperty, MatchesBruteForceReference) {
  Rng rng(424242);
  mem::RangeMap<int> map;
  std::vector<std::tuple<std::uint64_t, std::uint64_t, int>> reference;

  for (int step = 0; step < 500; ++step) {
    const std::uint64_t base = rng.next_below(1 << 16);
    const std::uint64_t size = 1 + rng.next_below(1 << 10);
    const bool ref_overlaps = std::any_of(
        reference.begin(), reference.end(), [&](const auto& r) {
          const auto [b, s, v] = r;
          return base < b + s && b < base + size;
        });
    const bool added = map.add(base, size, step).is_ok();
    EXPECT_EQ(added, !ref_overlaps) << "step " << step;
    if (added) reference.emplace_back(base, size, step);

    // Random lookups.
    for (int q = 0; q < 5; ++q) {
      const std::uint64_t addr = rng.next_below(1 << 17);
      const auto* found = map.find(addr);
      const auto it = std::find_if(
          reference.begin(), reference.end(), [&](const auto& r) {
            const auto [b, s, v] = r;
            return addr >= b && addr < b + s;
          });
      if (it == reference.end()) {
        EXPECT_EQ(found, nullptr);
      } else {
        ASSERT_NE(found, nullptr);
        EXPECT_EQ(found->value, std::get<2>(*it));
      }
    }
  }
}

// --- Scheduler ordering -----------------------------------------------------------

class SchedulerOrdering : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerOrdering, RandomEventsFireSorted) {
  Rng rng(GetParam());
  sim::Scheduler sched;
  std::vector<TimePs> fired;
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    const TimePs t = static_cast<TimePs>(rng.next_below(1'000'000));
    sched.schedule_at(t, [&fired, &sched] { fired.push_back(sched.now()); });
  }
  sched.run();
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(n));
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerOrdering,
                         ::testing::Values(11, 22, 33));

}  // namespace
}  // namespace tca
