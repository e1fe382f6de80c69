// Tests for tca::coll — the communicator-based collective library.
//
// The load-bearing suites cross-validate allreduce against
// baseline::Collectives (bitwise, same ring fold order) and check every
// halo row against the rank's ring neighbours, across rank counts (up to a
// 32-rank torus), payload sizes and host/GPU residency. The Recovery pair
// reruns the PR-3 acceptance scenario at the collective level: an
// allreduce crossing a FaultPlan-cut ring cable completes via failover +
// doorbell retry, and with failover disabled the same campaign surfaces
// kTimedOut instead of wedging. The Soak sweep (ctest label: soak)
// randomizes the whole matrix.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "api/tca.h"
#include "baseline/collectives.h"
#include "baseline/ib_fabric.h"
#include "baseline/mpi_lite.h"
#include "coll/communicator.h"
#include "common/rng.h"
#include "common/trace.h"
#include "obs/metrics.h"

namespace tca::coll {
namespace {

using units::ms;
using units::ns;
using units::us;

api::TcaConfig cluster_on(fabric::TopologySpec spec) {
  return api::TcaConfig{.spec = std::move(spec),
                        .node_config = {.gpu_count = 2,
                                        .host_backing_bytes = 16 << 20,
                                        .gpu_backing_bytes = 8 << 20}};
}

api::TcaConfig cluster_of(std::uint32_t nodes) {
  return cluster_on(fabric::TopologySpec::ring(nodes));
}

/// 32 ranks: twice the largest ring, on the boustrophedon ring order.
fabric::TopologySpec torus_8x4() { return fabric::TopologySpec::torus({8, 4}); }

std::vector<std::byte> pattern(std::size_t n, std::uint8_t seed = 1) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((seed * 31 + i * 7) & 0xff);
  }
  return v;
}

/// Per-rank input vectors, deterministic in (seed, rank, index). Every value
/// is a multiple of 1/64 below 32 in magnitude, so a sum over 32 ranks is
/// exact in any fold order: a torus, whose ring order is not the baseline's
/// rank order, still matches baseline::Collectives bitwise.
std::vector<std::vector<double>> make_inputs(std::uint64_t seed,
                                             std::uint32_t ranks,
                                             std::uint64_t count) {
  Rng rng(seed);
  std::vector<std::vector<double>> in(ranks);
  for (std::uint32_t r = 0; r < ranks; ++r) {
    in[r].resize(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      in[r][i] = (static_cast<double>(rng.next_below(4000)) - 2000.0) / 64.0;
    }
  }
  return in;
}

/// Runs the same allreduce over the conventional MPI/IB stack. Pure host
/// spans: the FP result only depends on the fold order, which is what the
/// bitwise comparisons check.
std::vector<std::vector<double>> baseline_allreduce(
    std::uint32_t n, std::vector<std::vector<double>> data) {
  sim::Scheduler sched;
  std::vector<std::unique_ptr<node::ComputeNode>> nodes;
  for (std::uint32_t i = 0; i < n; ++i) {
    nodes.push_back(std::make_unique<node::ComputeNode>(
        sched, static_cast<int>(i),
        node::NodeConfig{.gpu_count = 2,
                         .host_backing_bytes = 8 << 20,
                         .gpu_backing_bytes = 4 << 20}));
  }
  std::vector<node::ComputeNode*> ptrs;
  for (auto& p : nodes) ptrs.push_back(p.get());
  baseline::IbFabric fabric(sched, ptrs);
  baseline::MpiLite mpi(sched, fabric);
  baseline::Collectives coll(mpi, n);
  for (std::uint32_t r = 0; r < n; ++r) {
    sim::spawn([](baseline::Collectives& c, std::uint32_t rank,
                  std::span<double> d) -> sim::Task<> {
      co_await c.allreduce_sum(rank, d);
    }(coll, r, std::span(data[r])));
  }
  sched.run();
  return data;
}

/// Allocates one buffer per rank (host or GPU 0) and loads the inputs.
std::vector<api::Buffer> load_inputs(
    api::Runtime& rt, const std::vector<std::vector<double>>& in, bool host) {
  std::vector<api::Buffer> bufs(in.size());
  for (std::uint32_t r = 0; r < in.size(); ++r) {
    const std::uint64_t bytes = in[r].size() * sizeof(double);
    bufs[r] = host ? rt.alloc_host(r, bytes).value()
                   : rt.alloc_gpu(r, 0, bytes).value();
    rt.write(bufs[r], 0, std::as_bytes(std::span(in[r])));
  }
  return bufs;
}

std::vector<double> read_doubles(api::Runtime& rt, api::Buffer buf,
                                 std::uint64_t offset, std::uint64_t count) {
  std::vector<double> out(count);
  rt.read(buf, offset, std::as_writable_bytes(std::span(out)));
  return out;
}

/// Spawns `comm.allreduce_sum` on every rank and runs the scheduler.
std::vector<Status> run_allreduce(sim::Scheduler& sched, Communicator& comm,
                                  const std::vector<api::Buffer>& bufs,
                                  std::uint64_t count) {
  std::vector<Status> st(comm.ranks());
  for (std::uint32_t r = 0; r < comm.ranks(); ++r) {
    sim::spawn([](Communicator& c, api::Buffer b, std::uint32_t rank,
                  std::uint64_t n, Status& out) -> sim::Task<> {
      out = co_await c.allreduce_sum(rank, b, 0, n);
    }(comm, bufs[r], r, count, st[r]));
  }
  sched.run();
  return st;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

struct ScopedSampling {
  ScopedSampling() { obs::set_sampling_enabled(true); }
  ~ScopedSampling() { obs::set_sampling_enabled(false); }
};

// --- Construction & algorithm selection --------------------------------------

TEST(Coll, CreateValidatesConfig) {
  sim::Scheduler sched;
  api::Runtime rt(sched, cluster_of(4));

  auto bad_slots = Communicator::create(rt, CollConfig{.staging_slots = 1});
  EXPECT_FALSE(bad_slots.is_ok());
  EXPECT_EQ(bad_slots.status().code(), ErrorCode::kInvalidArgument);

  auto bad_seg =
      Communicator::create(rt, CollConfig{.pipeline_seg_bytes = 1001});
  EXPECT_FALSE(bad_seg.is_ok());

  auto ok = Communicator::create(rt);
  ASSERT_TRUE(ok.is_ok()) << ok.status().to_string();
  EXPECT_EQ(ok.value().ranks(), 4u);
}

// communicator.cpp static_asserts flag_regions_partition over the real
// flag-word layout for every world size. Here the validator meets a data
// and an ack region of five words each: overlapping ones, disjoint ones in
// a row that holds them, and the same in a row one word short. Each result
// is a constant expression, so the same layout in communicator.cpp fails
// the build.
TEST(FlagLayout, OverlappingOrOverflowingRegionsAreRejected) {
  constexpr FlagRegion overlapping[] = {{0, 5}, {4, 5}};
  constexpr FlagRegion disjoint[] = {{0, 5}, {5, 5}};
  constexpr bool overlap_ok = flag_regions_partition(overlapping, 10);
  constexpr bool disjoint_ok = flag_regions_partition(disjoint, 10);
  constexpr bool short_row_ok = flag_regions_partition(disjoint, 9);
  EXPECT_FALSE(overlap_ok);
  EXPECT_TRUE(disjoint_ok);
  EXPECT_FALSE(short_row_ok);
}

TEST(Coll, AlgorithmSelectionFollowsSizeAndResidency) {
  sim::Scheduler sched;
  api::Runtime rt(sched, cluster_of(2));
  auto comm = Communicator::create(rt);
  ASSERT_TRUE(comm.is_ok());
  const Communicator& c = comm.value();

  // Host payloads at or below the threshold go eager; everything else —
  // bigger, or GPU-resident at any size — rides the DMA ring.
  EXPECT_EQ(c.select_algorithm(64, true), Algorithm::kEager);
  EXPECT_EQ(c.select_algorithm(2048, true), Algorithm::kEager);
  EXPECT_EQ(c.select_algorithm(2049, true), Algorithm::kRing);
  EXPECT_EQ(c.select_algorithm(64, false), Algorithm::kRing);
  EXPECT_EQ(c.select_algorithm(1 << 20, false), Algorithm::kRing);
}

// --- Allreduce vs the conventional stack (bitwise) ---------------------------

// No padding, for a ctest name that is the same in every build (see
// CopyCase in api_test.cpp).
struct AllreduceCase {
  AllreduceCase(std::uint32_t ranks_in, std::uint64_t count_in, bool host_in,
                bool torus_in = false)
      : ranks(ranks_in), count(count_in), host(host_in), torus(torus_in) {}

  std::uint32_t ranks;  // a ring of `ranks`, or torus_8x4() when `torus`
  std::uint32_t zero0 = 0;
  std::uint64_t count;  // doubles per rank (divisible by ranks)
  bool host;
  bool torus;
  std::uint8_t zero1[6] = {};
};
static_assert(std::has_unique_object_representations_v<AllreduceCase>);

class AllreduceVsBaseline : public ::testing::TestWithParam<AllreduceCase> {};

TEST_P(AllreduceVsBaseline, MatchesBitwise) {
  const AllreduceCase& p = GetParam();
  const auto in = make_inputs(0x5eed0 + p.ranks, p.ranks, p.count);

  sim::Scheduler sched;
  api::Runtime rt(sched, p.torus ? cluster_on(torus_8x4())
                                 : cluster_of(p.ranks));
  ASSERT_EQ(rt.node_count(), p.ranks);
  auto comm = Communicator::create(rt);
  ASSERT_TRUE(comm.is_ok()) << comm.status().to_string();
  auto bufs = load_inputs(rt, in, p.host);

  const auto st = run_allreduce(sched, comm.value(), bufs, p.count);
  for (std::uint32_t r = 0; r < p.ranks; ++r) {
    ASSERT_TRUE(st[r].is_ok()) << "rank " << r << ": " << st[r].to_string();
  }

  const auto expected = baseline_allreduce(p.ranks, in);
  for (std::uint32_t r = 0; r < p.ranks; ++r) {
    const auto got = read_doubles(rt, bufs[r], 0, p.count);
    EXPECT_TRUE(bitwise_equal(got, expected[r]))
        << "rank " << r << " diverged from baseline::Collectives";
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesRanksResidency, AllreduceVsBaseline,
    ::testing::Values(
        AllreduceCase{2, 64, true},     // 512 B host: eager path
        AllreduceCase{2, 256, true},    // 2 KB host: eager, at the threshold
        AllreduceCase{4, 64, true},     // eager with a gather fan-in
        AllreduceCase{4, 4096, true},   // 32 KB host: ring, no staging
        AllreduceCase{4, 4096, false},  // 32 KB GPU: ring, staged + carried
        AllreduceCase{8, 8192, false},  // 64 KB GPU on 8 ranks
        AllreduceCase{32, 64, true, true},      // torus 8x4: eager host
        AllreduceCase{32, 8192, false, true}),  // torus 8x4: ring GPU
    [](const auto& param_info) {
      const AllreduceCase& c = param_info.param;
      return std::to_string(c.ranks) + "ranks_" + std::to_string(c.count) +
             (c.host ? "_host" : "_gpu") + (c.torus ? "_torus8x4" : "");
    });

TEST(Coll, AllreduceLargeGpuStagesOnceThenCarries) {
  // 256 KB per rank on 4 ranks: every chunk is one 64 KB segment, so per
  // rank the six ring sends (3 reduce-scatter + 3 allgather) stage exactly
  // the first one D2H and forward the other five from the host-carried
  // fold of the previous step.
  constexpr std::uint32_t kRanks = 4;
  constexpr std::uint64_t kCount = 32768;
  const auto in = make_inputs(0xca44, kRanks, kCount);

  sim::Scheduler sched;
  api::Runtime rt(sched, cluster_of(kRanks));
  auto comm = Communicator::create(rt);
  ASSERT_TRUE(comm.is_ok());
  auto bufs = load_inputs(rt, in, /*host=*/false);

  const auto st = run_allreduce(sched, comm.value(), bufs, kCount);
  for (const Status& s : st) ASSERT_TRUE(s.is_ok()) << s.to_string();

  const CollMetrics& m = comm.value().metrics();
  EXPECT_GT(m.staged_d2h_bytes, 0u);
  EXPECT_GT(m.host_carry_bytes, 0u);
  // The carry does the bulk of the work: 5 of 6 sends per rank.
  EXPECT_EQ(m.staged_d2h_bytes, kRanks * (kCount / kRanks) * 8);
  EXPECT_EQ(m.host_carry_bytes, 5 * m.staged_d2h_bytes);

  // Bit-identical to the conventional stack even with the carry in play.
  const auto expected = baseline_allreduce(kRanks, in);
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    EXPECT_TRUE(bitwise_equal(read_doubles(rt, bufs[r], 0, kCount),
                              expected[r]))
        << "rank " << r;
  }
}

TEST(Coll, RingAllreducePutsSkipTheTableFetchAndTheInterrupt) {
  // Every ring put is a single descriptor on the immediate registers,
  // completed by status writeback: no rank's PEACH2 fetches a descriptor
  // table or raises a completion interrupt.
  constexpr std::uint32_t kRanks = 8;
  constexpr std::uint64_t kCount = 1024;  // 8 KiB per rank, GPU-resident
  const auto in = make_inputs(0x7ab1e, kRanks, kCount);

  sim::Scheduler sched;
  api::Runtime rt(sched, cluster_of(kRanks));
  auto comm = Communicator::create(rt);
  ASSERT_TRUE(comm.is_ok());
  auto bufs = load_inputs(rt, in, /*host=*/false);

  const auto st = run_allreduce(sched, comm.value(), bufs, kCount);
  for (const Status& s : st) ASSERT_TRUE(s.is_ok()) << s.to_string();
  EXPECT_EQ(comm.value().metrics().ring_ops, kRanks);

  std::uint64_t chains = 0;
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    chains += rt.cluster().driver(r).chains_run();
    for (int ch = 0; ch < calib::kDmaChannels; ++ch) {
      const peach2::DmaController& d = rt.cluster().chip(r).dmac(ch);
      EXPECT_EQ(d.table_fetches(), 0u) << "rank " << r << " channel " << ch;
      EXPECT_EQ(d.interrupts(), 0u) << "rank " << r << " channel " << ch;
    }
  }
  EXPECT_EQ(chains, kRanks * 2 * (kRanks - 1));  // one put per ring step

  const auto expected = baseline_allreduce(kRanks, in);
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    EXPECT_TRUE(bitwise_equal(read_doubles(rt, bufs[r], 0, kCount),
                              expected[r]))
        << "rank " << r;
  }
}

// --- Halo exchange -----------------------------------------------------------

// Region layout within each rank's buffer, in units of `bytes`:
//   [0] recv_from_prev  [1] send_to_prev  [2] send_to_next  [3] recv_from_next
HaloSpec halo_spec(api::Buffer buf, std::uint64_t bytes) {
  return HaloSpec{.buf = buf,
                  .send_to_next_off = 2 * bytes,
                  .send_to_prev_off = bytes,
                  .recv_from_prev_off = 0,
                  .recv_from_next_off = 3 * bytes,
                  .bytes = bytes};
}

/// One exchange on every rank of `spec`, each rank arriving (7r mod 5) x
/// 200 ns late so the ranks' flag signals interleave; every received row is
/// checked against the rank's ring neighbours.
void run_halo_and_verify(const fabric::TopologySpec& spec, std::uint64_t bytes,
                         bool host) {
  sim::Scheduler sched;
  api::Runtime rt(sched, cluster_on(spec));
  auto comm = Communicator::create(rt);
  ASSERT_TRUE(comm.is_ok());
  const Communicator& c = comm.value();
  const std::uint32_t ranks = c.ranks();

  std::vector<api::Buffer> bufs(ranks);
  std::vector<std::vector<std::byte>> to_prev(ranks), to_next(ranks);
  for (std::uint32_t r = 0; r < ranks; ++r) {
    bufs[r] = host ? rt.alloc_host(r, 4 * bytes).value()
                   : rt.alloc_gpu(r, 0, 4 * bytes).value();
    to_prev[r] = pattern(bytes, static_cast<std::uint8_t>(2 * r + 1));
    to_next[r] = pattern(bytes, static_cast<std::uint8_t>(2 * r + 2));
    rt.write(bufs[r], bytes, to_prev[r]);
    rt.write(bufs[r], 2 * bytes, to_next[r]);
  }

  std::vector<Status> st(ranks);
  for (std::uint32_t r = 0; r < ranks; ++r) {
    sim::spawn([](Communicator& cm, sim::Scheduler& s, HaloSpec halo,
                  std::uint32_t rank, Status& out) -> sim::Task<> {
      co_await sim::Delay(s, ns(200) * ((7 * rank) % 5));
      out = co_await cm.neighbor_exchange(rank, halo);
    }(comm.value(), sched, halo_spec(bufs[r], bytes), r, st[r]));
  }
  sched.run();
  for (const Status& s : st) ASSERT_TRUE(s.is_ok()) << s.to_string();

  for (std::uint32_t r = 0; r < ranks; ++r) {
    std::vector<std::byte> got(bytes);
    rt.read(bufs[r], 0, got);
    EXPECT_EQ(got, to_next[c.ring_prev(r)]) << "rank " << r << " from prev";
    rt.read(bufs[r], 3 * bytes, got);
    EXPECT_EQ(got, to_prev[c.ring_next(r)]) << "rank " << r << " from next";
  }
  EXPECT_EQ(c.metrics().halo_ops, ranks);
}

TEST(Coll, NeighborExchangeEagerMovesSmallHostRows) {
  run_halo_and_verify(fabric::TopologySpec::ring(4), /*bytes=*/512,
                      /*host=*/true);
  run_halo_and_verify(torus_8x4(), /*bytes=*/512, /*host=*/true);
}

TEST(Coll, NeighborExchangeDmaMovesLargeGpuRows) {
  run_halo_and_verify(fabric::TopologySpec::ring(4), /*bytes=*/16 << 10,
                      /*host=*/false);
  run_halo_and_verify(torus_8x4(), /*bytes=*/16 << 10, /*host=*/false);
}

// --- Argument validation & op-sequence divergence ----------------------------

TEST(Coll, ValidatesCollectiveArguments) {
  sim::Scheduler sched;
  api::Runtime rt(sched, cluster_of(4));
  auto comm = Communicator::create(rt);
  ASSERT_TRUE(comm.is_ok());
  Communicator& c = comm.value();
  auto mine = rt.alloc_host(0, 4096).value();
  auto theirs = rt.alloc_host(1, 4096).value();

  auto bad_rank = c.allreduce_sum(9, mine, 0, 4);
  sched.run();
  EXPECT_EQ(bad_rank.result().code(), ErrorCode::kInvalidArgument);

  auto wrong_node = c.allreduce_sum(0, theirs, 0, 4);  // buffer on node 1
  sched.run();
  EXPECT_EQ(wrong_node.result().code(), ErrorCode::kInvalidArgument);

  auto overflow = c.allreduce_sum(0, mine, 4000, 128);  // 1 KiB at 4000
  sched.run();
  EXPECT_EQ(overflow.result().code(), ErrorCode::kOutOfRange);

  auto wrap = c.allreduce_sum(0, mine, ~0ull - 7, 4);  // offset + bytes wraps
  sched.run();
  EXPECT_EQ(wrap.result().code(), ErrorCode::kOutOfRange);

  auto bad_count = c.allreduce_sum(0, mine, 0, 6);  // not a multiple of 4
  sched.run();
  EXPECT_EQ(bad_count.result().code(), ErrorCode::kInvalidArgument);

  auto big_halo = c.neighbor_exchange(
      0, HaloSpec{.buf = mine, .bytes = 128 << 10});  // > one staging slot
  sched.run();
  EXPECT_EQ(big_halo.result().code(), ErrorCode::kInvalidArgument);
}

TEST(Coll, DivergedOpSequenceIsDetectedDeterministically) {
  sim::Scheduler sched;
  api::Runtime rt(sched, cluster_of(2));
  // Bounded waits so the non-diverged rank reports kTimedOut instead of
  // polling forever for a partner that took a different branch.
  auto comm = Communicator::create(rt, CollConfig{.flag_timeout_ps = us(500)});
  ASSERT_TRUE(comm.is_ok());
  auto bufs = load_inputs(rt, make_inputs(1, 2, 64), /*host=*/true);

  std::vector<Status> st(2);
  sim::spawn([](Communicator& c, api::Buffer b, Status& out) -> sim::Task<> {
    out = co_await c.allreduce_sum(0, b, 0, 64);
  }(comm.value(), bufs[0], st[0]));
  sim::spawn([](Communicator& c, api::Buffer b, Status& out) -> sim::Task<> {
    // Diverges: rank 0 called allreduce.
    out = co_await c.neighbor_exchange(1, HaloSpec{.buf = b, .bytes = 64});
  }(comm.value(), bufs[1], st[1]));
  sched.run();

  // Rank 0 registered the op first, so rank 1 is the one that diverged;
  // rank 0's wait for its vanished partner expires instead of hanging.
  EXPECT_EQ(st[1].code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(st[0].code(), ErrorCode::kTimedOut);
}

// --- Metrics & export --------------------------------------------------------

TEST(Coll, MetricsCountOpsAndExportThroughTheRegistry) {
  ScopedSampling sampling;
  constexpr std::uint32_t kRanks = 4;
  sim::Scheduler sched;
  api::Runtime rt(sched, cluster_of(kRanks));
  auto comm = Communicator::create(rt);
  ASSERT_TRUE(comm.is_ok());

  const auto eager_in = make_inputs(2, kRanks, 64);     // 512 B: eager
  const auto ring_in = make_inputs(3, kRanks, 16384);   // 128 KB GPU: ring
  auto eager_bufs = load_inputs(rt, eager_in, /*host=*/true);
  auto ring_bufs = load_inputs(rt, ring_in, /*host=*/false);

  std::vector<Status> st(kRanks);
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    sim::spawn([](Communicator& c, api::Buffer eager_buf, api::Buffer ring_buf,
                  std::uint32_t rank, Status& out) -> sim::Task<> {
      out = co_await c.allreduce_sum(rank, eager_buf, 0, 64);
      if (out.is_ok()) {
        out = co_await c.allreduce_sum(rank, ring_buf, 0, 16384);
      }
    }(comm.value(), eager_bufs[r], ring_bufs[r], r, st[r]));
  }
  sched.run();
  for (const Status& s : st) ASSERT_TRUE(s.is_ok()) << s.to_string();

  const CollMetrics& m = comm.value().metrics();
  EXPECT_EQ(m.allreduce_ops, 2u * kRanks);
  EXPECT_EQ(m.eager_ops, kRanks);
  EXPECT_EQ(m.ring_ops, kRanks);
  EXPECT_GT(m.bytes, 0u);
  EXPECT_GT(m.staged_d2h_bytes, 0u);
  EXPECT_GT(m.host_carry_bytes, 0u);
  EXPECT_EQ(m.put_retries, 0u);  // healthy fabric

  obs::MetricRegistry reg;
  comm.value().export_metrics(reg);
  EXPECT_EQ(reg.counter_value("coll.allreduce_ops"), 2u * kRanks);
  EXPECT_EQ(reg.counter_value("coll.host_carry_bytes"), m.host_carry_bytes);
  EXPECT_EQ(reg.counter_value("coll.staged_d2h_bytes"), m.staged_d2h_bytes);
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_TRUE(snap.histograms.contains("coll.allreduce.eager_latency_ps"));
  EXPECT_TRUE(snap.histograms.contains("coll.allreduce.ring_latency_ps"));
  // The api.* and fabric.* roll-ups ride along in the same registry.
  EXPECT_TRUE(snap.counters.contains("api.memcpy.ops"));
  EXPECT_TRUE(snap.counters.contains("fabric.payload_bytes"));
}

// --- Fault recovery ----------------------------------------------------------

TEST(Recovery, CollAllreduceSurvivesRingCableCutViaFailover) {
  constexpr std::uint32_t kRanks = 4;
  constexpr std::uint64_t kCount = 8192;  // 64 KB per rank, host ring
  const auto in = make_inputs(0xfa11, kRanks, kCount);

  sim::Scheduler sched;
  auto config = cluster_of(kRanks);
  config.fault_plan.cut(0, us(5));  // node0 East dies mid-collective
  api::Runtime rt(sched, config);
  auto comm = Communicator::create(
      rt, CollConfig{.sync = {.max_attempts = 4, .timeout_ps = us(300)},
                     .flag_timeout_ps = ms(50)});
  ASSERT_TRUE(comm.is_ok());
  auto bufs = load_inputs(rt, in, /*host=*/true);

  const auto st = run_allreduce(sched, comm.value(), bufs, kCount);
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    ASSERT_TRUE(st[r].is_ok()) << "rank " << r << ": " << st[r].to_string();
  }

  // The collective recovered the long way around the ring...
  EXPECT_FALSE(rt.cluster().cable_usable(0));
  EXPECT_GE(rt.cluster().failovers(), 1u);
  EXPECT_GE(comm.value().metrics().put_retries, 1u);

  // ...and the result is still bit-identical to the conventional stack.
  const auto expected = baseline_allreduce(kRanks, in);
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    EXPECT_TRUE(bitwise_equal(read_doubles(rt, bufs[r], 0, kCount),
                              expected[r]))
        << "rank " << r;
  }
}

TEST(Recovery, CollAllreduceSurfacesTimedOutWithoutFailover) {
  constexpr std::uint32_t kRanks = 2;
  constexpr std::uint64_t kCount = 8192;
  const auto in = make_inputs(0xdead, kRanks, kCount);

  sim::Scheduler sched;
  auto config = cluster_of(kRanks);
  config.fault_plan.cut(0, us(5));
  config.enable_failover = false;
  api::Runtime rt(sched, config);
  auto comm = Communicator::create(
      rt, CollConfig{.sync = {.max_attempts = 2, .timeout_ps = us(200)},
                     .flag_timeout_ps = ms(2)});
  ASSERT_TRUE(comm.is_ok());
  auto bufs = load_inputs(rt, in, /*host=*/true);

  const auto st = run_allreduce(sched, comm.value(), bufs, kCount);

  // The whole point: the simulation ran dry (sched.run() returned) with
  // every rank holding a failure instead of wedging on a dead cable.
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    EXPECT_FALSE(st[r].is_ok()) << "rank " << r;
  }
  EXPECT_TRUE(st[0].code() == ErrorCode::kTimedOut ||
              st[1].code() == ErrorCode::kTimedOut);
  EXPECT_EQ(rt.cluster().failovers(), 0u);
  EXPECT_LE(sched.now(), ms(20));
}

// --- Determinism -------------------------------------------------------------

// One traced collective campaign under a link flap: allreduce on 4 ranks
// while cable 0 goes down for 100us. Returns the trace JSON.
std::string run_traced_campaign() {
  constexpr std::uint32_t kRanks = 4;
  constexpr std::uint64_t kCount = 8192;
  Trace trace;
  sim::Scheduler sched;
  sched.set_trace(&trace);
  auto config = cluster_of(kRanks);
  config.fault_plan.flap(0, us(5), us(100));
  api::Runtime rt(sched, config);
  auto comm = Communicator::create(
      rt, CollConfig{.sync = {.max_attempts = 4, .timeout_ps = us(300)},
                     .flag_timeout_ps = ms(50)});
  EXPECT_TRUE(comm.is_ok());
  auto bufs =
      load_inputs(rt, make_inputs(0x7ace, kRanks, kCount), /*host=*/true);
  const auto st = run_allreduce(sched, comm.value(), bufs, kCount);
  for (const Status& s : st) EXPECT_TRUE(s.is_ok()) << s.to_string();
  return trace.to_json();
}

TEST(Determinism, CollectiveCampaignUnderFaultsReplaysIdentically) {
  const std::string first = run_traced_campaign();
  const std::string second = run_traced_campaign();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// --- Randomized sweep (ctest label: soak) ------------------------------------

TEST(Soak, RandomizedAllreduceSweepMatchesBaseline) {
  Rng rng(20260806);
  for (int iter = 0; iter < 8; ++iter) {
    const std::uint32_t n = 2u << rng.next_below(3);  // 2, 4 or 8 ranks
    const std::uint64_t count = n * (1 + rng.next_below(512));
    const bool host = rng.next_below(2) == 0;
    SCOPED_TRACE("iter " + std::to_string(iter) + ": n=" + std::to_string(n) +
                 " count=" + std::to_string(count) +
                 (host ? " host" : " gpu"));
    const auto in = make_inputs(rng.next_u64(), n, count);

    sim::Scheduler sched;
    api::Runtime rt(sched, cluster_of(n));
    auto comm = Communicator::create(rt);
    ASSERT_TRUE(comm.is_ok());
    auto bufs = load_inputs(rt, in, host);
    const auto st = run_allreduce(sched, comm.value(), bufs, count);
    for (const Status& s : st) ASSERT_TRUE(s.is_ok()) << s.to_string();

    const auto expected = baseline_allreduce(n, in);
    for (std::uint32_t r = 0; r < n; ++r) {
      ASSERT_TRUE(bitwise_equal(read_doubles(rt, bufs[r], 0, count),
                                expected[r]))
          << "rank " << r;
    }
  }
}

}  // namespace
}  // namespace tca::coll
