// Tests for the TopologySpec value type and the torus generalization of
// the sub-cluster fabric: per-topology validation, the CLI parse grammar,
// dimension-order routing walked against the actual routing registers, the
// 1D-torus == ring degenerate-case gate (byte-identical traces), and the
// per-dimension torus failover acceptance pair.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/trace.h"
#include "fabric/sub_cluster.h"
#include "fabric/topology.h"
#include "peach2/nios.h"

namespace tca::fabric {
namespace {

using peach2::DmaDescriptor;
using peach2::DmaDirection;
using units::us;

/// Small per-node backing stores: a 16-node torus with the default sizes
/// would map gigabytes of address space and touch its staged bytes.
SubClusterConfig small_cluster(TopologySpec spec) {
  return SubClusterConfig{
      .spec = spec,
      .node_config = {.gpu_count = 0,
                      .host_backing_bytes = 4 << 20,
                      .gpu_backing_bytes = 1 << 20},
  };
}

TEST(TopologySpec, ValidatePerTopologyRules) {
  EXPECT_TRUE(TopologySpec::ring(8).validate().is_ok());
  EXPECT_FALSE(TopologySpec::ring(1).validate().is_ok());
  EXPECT_FALSE(TopologySpec::ring(6).validate().is_ok());   // not 2^k
  EXPECT_FALSE(TopologySpec::ring(32).validate().is_ok());  // > 16
  EXPECT_TRUE(TopologySpec::dual_ring(8).validate().is_ok());
  EXPECT_FALSE(TopologySpec::dual_ring(2).validate().is_ok());

  EXPECT_TRUE(TopologySpec::torus({4, 4}).validate().is_ok());
  EXPECT_TRUE(TopologySpec::torus({4, 4, 4}).validate().is_ok());
  EXPECT_TRUE(TopologySpec::torus({8, 8}).validate().is_ok());
  // The widest 2D torus that still fits the 64-entry register file.
  EXPECT_TRUE(TopologySpec::torus({32, 32}).validate().is_ok());
  EXPECT_FALSE(TopologySpec::torus({4, 6}).validate().is_ok());  // not 2^k
}

TEST(TopologySpec, ValidateErrorsNameTheViolatedDimension) {
  const Status undersized = TopologySpec::torus({4, 1}).validate();
  ASSERT_FALSE(undersized.is_ok());
  EXPECT_NE(undersized.to_string().find("dimension y"), std::string::npos)
      << undersized.to_string();

  // 127 + 1 route entries per node overflow the 64-entry register file;
  // the message points at the widest dimension (x).
  const Status wide = TopologySpec::torus({128, 2}).validate();
  ASSERT_FALSE(wide.is_ok());
  EXPECT_NE(wide.to_string().find("dimension x"), std::string::npos)
      << wide.to_string();
}

TEST(TopologySpec, ParseToStringRoundTrip) {
  for (const char* text : {"ring", "dual-ring", "torus:4x4", "torus:8",
                           "torus:4x2x2", "torus:32x32"}) {
    auto spec = TopologySpec::parse(text);
    ASSERT_TRUE(spec.is_ok()) << text;
    EXPECT_EQ(spec.value().to_string(), text);
  }
  EXPECT_FALSE(TopologySpec::parse("mesh").is_ok());
  EXPECT_FALSE(TopologySpec::parse("torus:").is_ok());
  EXPECT_FALSE(TopologySpec::parse("torus:4x").is_ok());
  EXPECT_FALSE(TopologySpec::parse("torus:4y4").is_ok());
  EXPECT_FALSE(TopologySpec::parse("torus:2x2x2x2").is_ok());  // > 3 dims
}

TEST(TopologySpec, CoordsAndHops) {
  const TopologySpec t = TopologySpec::torus({4, 2, 2});
  EXPECT_EQ(t.node_count(), 16u);
  EXPECT_EQ(t.node_at(t.coords(13)), 13u);
  // 13 = x1 y1 z1; 0 = origin: 1 + 1 + 1 wrap-free hops.
  EXPECT_EQ(t.hops(0, 13), 3u);
  // x distance uses the ring wrap: 0 -> 3 is one hop backwards.
  EXPECT_EQ(t.hops(0, 3), 1u);
  EXPECT_EQ(t.hops(5, 5), 0u);
}

TEST(TopologySpec, RingOrderIsHamiltonianAndUnitStride) {
  for (const TopologySpec& t :
       {TopologySpec::torus({4, 4}), TopologySpec::torus({4, 2, 2}),
        TopologySpec::torus({8, 8})}) {
    const std::vector<std::uint32_t> order = t.ring_order();
    ASSERT_EQ(order.size(), t.node_count());
    std::set<std::uint32_t> seen(order.begin(), order.end());
    EXPECT_EQ(seen.size(), t.node_count());  // a permutation
    // Consecutive positions (including the wrap back to position 0) are
    // fabric neighbors: every coll ring step is a single cable.
    for (std::size_t p = 0; p < order.size(); ++p) {
      const std::uint32_t a = order[p];
      const std::uint32_t b = order[(p + 1) % order.size()];
      EXPECT_EQ(t.hops(a, b), 1u) << t.to_string() << " pos " << p;
    }
  }
  // Identity on the paper's topologies, so ring schedules are unchanged.
  const std::vector<std::uint32_t> ring = TopologySpec::ring(8).ring_order();
  for (std::uint32_t r = 0; r < 8; ++r) EXPECT_EQ(ring[r], r);
}

/// Walks a packet for `to` through the actual routing registers starting at
/// `from` and returns the visited node sequence (excluding `from`).
std::vector<std::uint32_t> walk_route(SubCluster& tca,
                                      const TopologySpec& topo,
                                      std::uint32_t from, std::uint32_t to) {
  std::vector<std::uint32_t> path;
  std::uint32_t cur = from;
  while (cur != to) {
    const auto port = tca.chip(cur).routing().lookup(tca.layout().slice_base(to));
    if (!port.has_value()) {
      ADD_FAILURE() << "no route " << cur << " -> " << to;
      return path;
    }
    auto c = topo.coords(cur);
    bool stepped = false;
    for (std::uint32_t d = 0; d < topo.dims(); ++d) {
      const std::uint32_t e = topo.extent(d);
      if (*port == peach2::torus_plus_port(d)) {
        c[d] = (c[d] + 1) % e;
        stepped = true;
        break;
      }
      if (*port == peach2::torus_minus_port(d)) {
        c[d] = (c[d] + e - 1) % e;
        stepped = true;
        break;
      }
    }
    if (!stepped) {
      ADD_FAILURE() << "unexpected port " << static_cast<int>(*port);
      return path;
    }
    cur = topo.node_at(c);
    path.push_back(cur);
    if (path.size() > topo.node_count()) {
      ADD_FAILURE() << "route " << from << " -> " << to << " does not land";
      return path;
    }
  }
  return path;
}

class DimensionOrderRouting
    : public ::testing::TestWithParam<std::vector<std::uint32_t>> {};

TEST_P(DimensionOrderRouting, PathsAreMinimalAndLoopFree) {
  const TopologySpec topo = TopologySpec::torus(GetParam());
  sim::Scheduler sched;
  SubCluster tca(sched, small_cluster(topo));
  for (std::uint32_t from = 0; from < topo.node_count(); ++from) {
    for (std::uint32_t to = 0; to < topo.node_count(); ++to) {
      if (from == to) continue;
      const auto path = walk_route(tca, topo, from, to);
      // Path length equals the sum of per-dimension ring distances — the
      // dimension-order minimum — and hops() agrees.
      std::uint32_t expect = 0;
      for (std::uint32_t d = 0; d < topo.dims(); ++d) {
        expect += topo.ring_distance(d, topo.coords(from)[d],
                                     topo.coords(to)[d]);
      }
      EXPECT_EQ(path.size(), expect) << from << " -> " << to;
      EXPECT_EQ(topo.hops(from, to), expect);
      // No node repeats (in particular no livelock cycles).
      std::set<std::uint32_t> seen(path.begin(), path.end());
      EXPECT_EQ(seen.size(), path.size()) << from << " -> " << to;
      EXPECT_EQ(seen.count(from), 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Tori, DimensionOrderRouting,
                         ::testing::Values(std::vector<std::uint32_t>{4, 4},
                                           std::vector<std::uint32_t>{4, 2, 2},
                                           std::vector<std::uint32_t>{8}));

/// Drives one DMA chain (node 0 -> node 2 host) and returns the full chrome
/// trace JSON, our strongest equality witness: it captures cable names,
/// per-TLP routing, and timestamps.
std::string trace_of(const TopologySpec& spec) {
  Trace trace;
  sim::Scheduler sched;
  sched.set_trace(&trace);
  SubCluster tca(sched, small_cluster(spec));
  std::vector<std::byte> data(8 << 10);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i * 31 & 0xff);
  }
  tca.chip(0).internal_ram().write(0, data);
  auto t = tca.driver(0).run_chain(
      {DmaDescriptor{.src = tca.driver(0).internal_global(0),
                     .dst = tca.global_host(2, 0x4000),
                     .length = 8 << 10,
                     .direction = DmaDirection::kWrite}});
  sched.run();
  EXPECT_TRUE(t.done());
  return trace.to_json();
}

TEST(TorusDegenerateCase, OneDimensionalTorusMatchesRingByteForByte) {
  // The acceptance gate: torus:4 must be the paper's 4-node ring — same
  // cables, same routes, same event timeline, byte-identical trace.
  const std::string ring = trace_of(TopologySpec::ring(4));
  const std::string torus1d = trace_of(TopologySpec::torus({4}));
  ASSERT_FALSE(ring.empty());
  EXPECT_EQ(ring, torus1d);
}

TEST(TorusDegenerateCase, RoutingRegistersMatchRing) {
  sim::Scheduler s1, s2;
  SubCluster ring(s1, small_cluster(TopologySpec::ring(8)));
  SubCluster torus(s2, small_cluster(TopologySpec::torus({8})));
  for (std::uint32_t n = 0; n < 8; ++n) {
    const auto& a = ring.chip(n).routing();
    const auto& b = torus.chip(n).routing();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.entry(i).mask, b.entry(i).mask);
      EXPECT_EQ(a.entry(i).lower, b.entry(i).lower);
      EXPECT_EQ(a.entry(i).upper, b.entry(i).upper);
      EXPECT_EQ(a.entry(i).port, b.entry(i).port);
    }
  }
}

// --- Torus failover acceptance pair (mirrors the PR 3 ring scenario) --------

TEST(TorusFailover, ChainCrossingKilledCableReroutesAndCompletes) {
  sim::Scheduler sched;
  auto config = small_cluster(TopologySpec::torus({4, 4}));
  // Cable 0 is row 0's x-cable between nodes 0 and 1; the 0 -> 1 transfer
  // rides it until the cut, then the NIOS flips row 0's +x routes to -x
  // (0 -> 3 -> 2 -> 1, still inside dimension x).
  config.fault_plan.cut(0, us(5));
  SubCluster tca(sched, config);

  std::vector<std::byte> data(64 << 10);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i * 13 & 0xff);
  }
  tca.chip(0).internal_ram().write(0, data);
  auto t = tca.driver(0).run_chain_reliable(
      {DmaDescriptor{.src = tca.driver(0).internal_global(0),
                     .dst = tca.global_host(1, 0x2000),
                     .length = 64 << 10,
                     .direction = DmaDirection::kWrite}},
      driver::RetryPolicy{.max_attempts = 3, .timeout_ps = us(200)});
  sched.run();
  ASSERT_TRUE(t.done());

  const auto result = t.result();
  EXPECT_TRUE(result.status.is_ok()) << result.status.to_string();
  EXPECT_FALSE(tca.cable_usable(0));
  EXPECT_GE(tca.failovers(), 1u);
  // The reroute stayed within the x dimension: node 0 now sends its +1
  // x-neighbor the long way around its own row ring.
  const auto port = tca.chip(0).routing().lookup(tca.layout().slice_base(1));
  ASSERT_TRUE(port.has_value());
  EXPECT_EQ(*port, peach2::PortId::kWest);

  std::vector<std::byte> out(64 << 10);
  tca.node(1).cpu().read_host(0x2000, out);
  EXPECT_EQ(out, data);
}

TEST(TorusFailover, WithoutFailoverTheWatchdogSurfacesTimedOut) {
  sim::Scheduler sched;
  auto config = small_cluster(TopologySpec::torus({4, 4}));
  config.fault_plan.cut(0, us(5));
  config.enable_failover = false;
  SubCluster tca(sched, config);

  std::vector<std::byte> data(64 << 10);
  tca.chip(0).internal_ram().write(0, data);
  auto t = tca.driver(0).run_chain_reliable(
      {DmaDescriptor{.src = tca.driver(0).internal_global(0),
                     .dst = tca.global_host(1, 0x2000),
                     .length = 64 << 10,
                     .direction = DmaDirection::kWrite}},
      driver::RetryPolicy{.max_attempts = 2, .timeout_ps = us(200)});
  sched.run();
  ASSERT_TRUE(t.done());

  // The clean failure mode: the simulation ran dry (no hang) and the
  // chain reports kTimedOut after exhausting its attempts.
  const auto result = t.result();
  EXPECT_EQ(result.status.code(), ErrorCode::kTimedOut);
  EXPECT_EQ(result.attempts, 2u);
  EXPECT_EQ(tca.failovers(), 0u);
}

// --- Overlapping fault windows ----------------------------------------------

TEST(OverlappingFaults, RetrainWhileSecondSameDimCableDown) {
  sim::Scheduler sched;
  auto config = small_cluster(TopologySpec::torus({4, 4}));
  // Row 0's x-ring (cables 0..3): cable 0 dies, the reroute goes -x, then
  // cable 1 dies inside the detour (row 0 is now partitioned around node
  // 1), and cable 0 retrains while cable 1 is still down. Every window
  // boundary forces a route rewrite; the registers must track each one
  // and end consistent with the final link state.
  config.fault_plan.cut(0, us(5)).cut(1, us(20)).up(0, us(40));
  SubCluster tca(sched, config);

  std::vector<std::byte> data(64 << 10);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i * 29 & 0xff);
  }
  tca.chip(0).internal_ram().write(0, data);
  // Issued into the double-fault overlap: both arcs of row 0 are dirty
  // until cable 0 retrains, so completion requires riding out the overlap.
  auto t = tca.driver(0).run_chain_reliable(
      {DmaDescriptor{.src = tca.driver(0).internal_global(0),
                     .dst = tca.global_host(1, 0x2000),
                     .length = 64 << 10,
                     .direction = DmaDirection::kWrite}},
      driver::RetryPolicy{.max_attempts = 8, .timeout_ps = us(200)});
  sched.run();
  ASSERT_TRUE(t.done());
  EXPECT_TRUE(t.result().status.is_ok()) << t.result().status.to_string();

  // cable 0 down, cable 1 down (tie-break rewrites), cable 0 up again:
  // at least two distinct degradation rewrites and one restoration.
  EXPECT_GE(tca.failovers(), 2u);
  EXPECT_GE(tca.failbacks(), 1u);
  EXPECT_FALSE(tca.cable_usable(1));
  EXPECT_TRUE(tca.cable_usable(0));
  EXPECT_TRUE(tca.routes_consistent());
  // Final state: cable 1 (nodes 1-2) is the only fault. Node 0 reaches
  // node 1 the +x way; node 2 reaches node 1 the long way around row 0.
  const auto port01 = tca.chip(0).routing().lookup(tca.layout().slice_base(1));
  ASSERT_TRUE(port01.has_value());
  EXPECT_EQ(*port01, peach2::PortId::kEast);
  const auto port21 = tca.chip(2).routing().lookup(tca.layout().slice_base(1));
  ASSERT_TRUE(port21.has_value());
  EXPECT_EQ(*port21, peach2::PortId::kEast);

  std::vector<std::byte> out(64 << 10);
  tca.node(1).cpu().read_host(0x2000, out);
  EXPECT_EQ(out, data);
}

TEST(OverlappingFaults, FlapsShorterThanServiceDelayNeverReroute) {
  sim::Scheduler sched;
  auto config = small_cluster(TopologySpec::torus({4, 4}));
  // Two back-to-back flaps, each far shorter than the NIOS 2 us service
  // delay: by the time the management processor services either down
  // interrupt the link is already retrained, so the transition is
  // superseded — no failover, no failback, no route rewrite, no chain
  // quiesce. The link layer's replay buffer absorbs the blips and the
  // in-flight chain completes with nothing but a delay.
  const TimePs service = peach2::NiosController::kServiceDelay;
  ASSERT_LT(units::ns(300) * 2 + units::ns(200), service);
  config.fault_plan.flap(0, us(5), units::ns(300))
      .flap(0, us(5) + units::ns(600), units::ns(200));
  SubCluster tca(sched, config);

  std::vector<std::byte> data(64 << 10);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i * 31 & 0xff);
  }
  tca.chip(0).internal_ram().write(0, data);
  auto t = tca.driver(0).run_chain(
      {DmaDescriptor{.src = tca.driver(0).internal_global(0),
                     .dst = tca.global_host(1, 0x2000),
                     .length = 64 << 10,
                     .direction = DmaDirection::kWrite}});
  sched.run();
  ASSERT_TRUE(t.done());

  EXPECT_EQ(tca.failovers(), 0u);
  EXPECT_EQ(tca.failbacks(), 0u);
  EXPECT_EQ(tca.chain_quiesces(), 0u);
  EXPECT_EQ(tca.abandoned_tlps(), 0u);
  EXPECT_TRUE(tca.cable_usable(0));
  EXPECT_TRUE(tca.routes_consistent());
  // The surprise-downs did knock TLPs off the wire; replay recovered them.
  EXPECT_GT(tca.cable(0).end_a().dropped_tlps() +
                tca.cable(0).end_b().dropped_tlps(),
            0u);

  std::vector<std::byte> out(64 << 10);
  tca.node(1).cpu().read_host(0x2000, out);
  EXPECT_EQ(out, data);
}

}  // namespace
}  // namespace tca::fabric
