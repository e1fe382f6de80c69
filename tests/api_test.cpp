// Tests for the public TCA API: allocation, cudaMemcpyPeer-style transfers
// across every host/GPU source-destination combination, PIO-vs-DMA policy,
// block-stride chains, and flag synchronization.
#include <gtest/gtest.h>

#include <type_traits>

#include "api/tca.h"

namespace tca::api {
namespace {

using units::ns;
using units::us;

std::vector<std::byte> pattern(std::size_t n, std::uint8_t seed = 1) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((seed * 11 + i * 5) & 0xff);
  }
  return v;
}

TcaConfig small_config(std::uint32_t nodes = 2) {
  return TcaConfig{.spec = fabric::TopologySpec::ring(nodes),
                   .node_config = {.gpu_count = 2,
                                   .host_backing_bytes = 8 << 20,
                                   .gpu_backing_bytes = 4 << 20}};
}

TEST(Runtime, AllocHostRespectsCapacity) {
  sim::Scheduler sched;
  Runtime rt(sched, small_config());
  auto a = rt.alloc_host(0, 1 << 20);
  ASSERT_TRUE(a.is_ok());
  EXPECT_EQ(a.value().size, 1u << 20);
  EXPECT_TRUE(a.value().is_host());

  EXPECT_FALSE(rt.alloc_host(0, 0).is_ok());
  EXPECT_FALSE(rt.alloc_host(9, 64).is_ok());
  EXPECT_FALSE(rt.alloc_host(0, 1ull << 40).is_ok());
}

TEST(Runtime, AllocHostRejectsSizesThatWrapTheRegion) {
  // cursor + bytes wraps past 2^64 back under the region size.
  sim::Scheduler sched;
  Runtime rt(sched, small_config());
  ASSERT_TRUE(rt.alloc_host(0, 1).is_ok());
  EXPECT_EQ(rt.alloc_host(0, ~0ull).status().code(),
            ErrorCode::kResourceExhausted);
}

TEST(Runtime, AllocGpuRejectsSizesThatWrapDeviceMemory) {
  sim::Scheduler sched;
  Runtime rt(sched, small_config());
  ASSERT_TRUE(rt.alloc_gpu(0, 0, 4096).is_ok());
  EXPECT_FALSE(rt.alloc_gpu(0, 0, ~0ull - 100).is_ok());
}

TEST(Runtime, AllocGpuPinsPages) {
  sim::Scheduler sched;
  Runtime rt(sched, small_config());
  auto b = rt.alloc_gpu(1, 0, 128 << 10);
  ASSERT_TRUE(b.is_ok());
  EXPECT_FALSE(b.value().is_host());
  EXPECT_TRUE(rt.cluster().node(1).gpu(0).is_pinned(
      b.value().block_offset, 128 << 10));
}

TEST(Runtime, AllocGpuRejectsCrossSocketGpus) {
  sim::Scheduler sched;
  Runtime rt(sched, small_config());
  EXPECT_FALSE(rt.alloc_gpu(0, 2, 4096).is_ok());
  EXPECT_FALSE(rt.alloc_gpu(0, 3, 4096).is_ok());
  EXPECT_FALSE(rt.alloc_gpu(0, -1, 4096).is_ok());
}

TEST(Runtime, WriteReadRoundTripHostAndGpu) {
  sim::Scheduler sched;
  Runtime rt(sched, small_config());
  auto host = rt.alloc_host(0, 4096).value();
  auto dev = rt.alloc_gpu(0, 1, 4096).value();

  auto data = pattern(1024, 3);
  rt.write(host, 100, data);
  rt.write(dev, 200, data);
  std::vector<std::byte> out(1024);
  rt.read(host, 100, out);
  EXPECT_EQ(out, data);
  rt.read(dev, 200, out);
  EXPECT_EQ(out, data);
}

// gtest prints a parameter that has no printer as its raw bytes, and test
// discovery puts that print into the ctest name. The padding is spelled out
// as zeroed members so no byte is indeterminate: the name is the same in
// every build.
struct CopyCase {
  CopyCase(bool src_host_in, bool dst_host_in, bool remote_in,
           std::uint64_t bytes_in)
      : src_host(src_host_in),
        dst_host(dst_host_in),
        remote(remote_in),
        bytes(bytes_in) {}

  bool src_host;
  bool dst_host;
  bool remote;
  std::uint8_t zero[5] = {};
  std::uint64_t bytes;
};
static_assert(std::has_unique_object_representations_v<CopyCase>);

class MemcpyPeerTest : public ::testing::TestWithParam<CopyCase> {};

TEST_P(MemcpyPeerTest, MovesBytesCorrectly) {
  const CopyCase& c = GetParam();
  sim::Scheduler sched;
  Runtime rt(sched, small_config());

  auto make = [&](bool host, std::uint32_t node) {
    return host ? rt.alloc_host(node, 64 << 10).value()
                : rt.alloc_gpu(node, 0, 64 << 10).value();
  };
  Buffer src = make(c.src_host, 0);
  Buffer dst = make(c.dst_host, c.remote ? 1 : 0);
  if (!c.remote && c.src_host == c.dst_host && !c.src_host) {
    // same-node GPU-to-GPU: use the second GPU as destination
    dst = rt.alloc_gpu(0, 1, 64 << 10).value();
  }

  auto data = pattern(c.bytes, 7);
  rt.write(src, 64, data);

  auto t = rt.memcpy_peer(dst, 128, src, 64, c.bytes);
  sched.run();
  ASSERT_TRUE(t.done());
  EXPECT_TRUE(t.result().is_ok()) << t.result().to_string();

  std::vector<std::byte> out(c.bytes);
  rt.read(dst, 128, out);
  EXPECT_EQ(out, data);
}

INSTANTIATE_TEST_SUITE_P(
    AllPaths, MemcpyPeerTest,
    ::testing::Values(
        CopyCase{true, true, false, 256},      // host->host local, PIO
        CopyCase{true, true, false, 8192},     // host->host local, DMA
        CopyCase{true, true, true, 64},        // host->host remote, PIO
        CopyCase{true, true, true, 32 << 10},  // host->host remote, DMA
        CopyCase{true, false, false, 4096},    // host->GPU local
        CopyCase{true, false, true, 4096},     // host->GPU remote
        CopyCase{false, true, false, 4096},    // GPU->host local
        CopyCase{false, true, true, 16 << 10}, // GPU->host remote
        CopyCase{false, false, false, 4096},   // GPU->GPU same node
        CopyCase{false, false, true, 4096}),   // GPU->GPU over nodes!
    [](const auto& param_info) {
      const CopyCase& c = param_info.param;
      std::string name = c.src_host ? "Host" : "Gpu";
      name += c.dst_host ? "ToHost" : "ToGpu";
      name += c.remote ? "Remote" : "Local";
      name.append("_").append(std::to_string(c.bytes));
      return name;
    });

TEST(Runtime, MemcpyPeerRejectsOutOfRange) {
  sim::Scheduler sched;
  Runtime rt(sched, small_config());
  auto a = rt.alloc_host(0, 4096).value();
  auto b = rt.alloc_host(1, 4096).value();
  auto t = rt.memcpy_peer(b, 4000, a, 0, 1024);
  sched.run();
  EXPECT_FALSE(t.result().is_ok());
}

TEST(Runtime, MemcpyPeerRejectsOffsetsThatWrap) {
  // dst_off + bytes wraps to 1: the copy must fail validation, not reach
  // the address encoder.
  sim::Scheduler sched;
  Runtime rt(sched, small_config());
  auto a = rt.alloc_host(0, 4096).value();
  auto b = rt.alloc_host(1, 4096).value();
  auto t = rt.memcpy_peer(b, ~0ull, a, 0, 2);
  sched.run();
  EXPECT_EQ(t.result().code(), ErrorCode::kOutOfRange);
}

TEST(Runtime, ShortHostCopiesUsePioLongOnesUseDma) {
  sim::Scheduler sched;
  Runtime rt(sched, small_config());
  auto src = rt.alloc_host(0, 64 << 10).value();
  auto dst = rt.alloc_host(1, 64 << 10).value();
  auto data = pattern(64 << 10, 2);
  rt.write(src, 0, data);

  const std::uint64_t chains_before =
      rt.cluster().chip(0).dmac().chains_completed();
  auto t1 = rt.memcpy_peer(dst, 0, src, 0, 128);  // <= threshold: PIO
  sched.run();
  EXPECT_TRUE(t1.result().is_ok());
  EXPECT_EQ(rt.cluster().chip(0).dmac().chains_completed(), chains_before);

  auto t2 = rt.memcpy_peer(dst, 0, src, 0, 8192);  // > threshold: DMA
  sched.run();
  EXPECT_TRUE(t2.result().is_ok());
  EXPECT_EQ(rt.cluster().chip(0).dmac().chains_completed(),
            chains_before + 1);
}

TEST(Runtime, GpuToGpuOverNodesIsTheHeadlineFeature) {
  // GPU memory on node 0 lands in GPU memory on node 1 without any host
  // copy: host_bytes_written on both nodes' RCs stays zero.
  sim::Scheduler sched;
  Runtime rt(sched, small_config());
  auto src = rt.alloc_gpu(0, 0, 32 << 10).value();
  auto dst = rt.alloc_gpu(1, 0, 32 << 10).value();
  auto data = pattern(32 << 10, 8);
  rt.write(src, 0, data);

  const std::uint64_t host_writes_before =
      rt.cluster().node(0).socket(0).host_bytes_written() +
      rt.cluster().node(1).socket(0).host_bytes_written();
  auto t = rt.memcpy_peer(dst, 0, src, 0, 32 << 10);
  sched.run();
  ASSERT_TRUE(t.result().is_ok());

  std::vector<std::byte> out(32 << 10);
  rt.read(dst, 0, out);
  EXPECT_EQ(out, data);
  // The DMA descriptor table write is host traffic, but the *payload* never
  // touches host memory: allow only the table bytes.
  const std::uint64_t host_writes_after =
      rt.cluster().node(0).socket(0).host_bytes_written() +
      rt.cluster().node(1).socket(0).host_bytes_written();
  EXPECT_EQ(host_writes_after, host_writes_before);
}

TEST(Runtime, BlockStrideMovesAllBlocks) {
  sim::Scheduler sched;
  Runtime rt(sched, small_config());
  auto src = rt.alloc_host(0, 64 << 10).value();
  auto dst = rt.alloc_host(1, 64 << 10).value();

  // 8 blocks of 512 B from stride-1024 source into stride-2048 dest.
  std::vector<std::vector<std::byte>> blocks;
  for (std::uint32_t i = 0; i < 8; ++i) {
    blocks.push_back(pattern(512, static_cast<std::uint8_t>(i + 1)));
    rt.write(src, i * 1024, blocks.back());
  }
  auto t = rt.memcpy_block_stride(dst, 0, 2048, src, 0, 1024, 512, 8);
  sched.run();
  ASSERT_TRUE(t.result().is_ok()) << t.result().to_string();

  for (std::uint32_t i = 0; i < 8; ++i) {
    std::vector<std::byte> out(512);
    rt.read(dst, i * 2048, out);
    EXPECT_EQ(out, blocks[i]) << "block " << i;
  }
}

TEST(Runtime, BlockStrideRejectsOverflowAndTooMany) {
  sim::Scheduler sched;
  Runtime rt(sched, small_config());
  auto src = rt.alloc_host(0, 8192).value();
  auto dst = rt.alloc_host(1, 8192).value();
  auto t1 = rt.memcpy_block_stride(dst, 0, 4096, src, 0, 4096, 512, 4);
  sched.run();
  EXPECT_FALSE(t1.result().is_ok());  // src extent 3*4096+512 > 8192
  auto t2 = rt.memcpy_block_stride(dst, 0, 0, src, 0, 0, 16, 300);
  sched.run();
  EXPECT_FALSE(t2.result().is_ok());  // > kMaxDescriptors
}

TEST(Runtime, BlockStrideRejectsExtentsThatWrap) {
  // (count - 1) * stride = 2 * 2^63 wraps to 0, so the naive extent is one
  // block and "fits".
  sim::Scheduler sched;
  Runtime rt(sched, small_config());
  auto src = rt.alloc_host(0, 8192).value();
  auto dst = rt.alloc_host(1, 8192).value();
  auto t = rt.memcpy_block_stride(dst, 0, 1ull << 63, src, 0, 512, 512, 3);
  sched.run();
  EXPECT_EQ(t.result().code(), ErrorCode::kOutOfRange);
}

TEST(Runtime, BatchRunsManyCopiesInOneChain) {
  sim::Scheduler sched;
  Runtime rt(sched, small_config());
  auto src = rt.alloc_host(0, 64 << 10).value();
  auto dst_a = rt.alloc_host(1, 32 << 10).value();
  auto dst_b = rt.alloc_gpu(1, 0, 32 << 10).value();

  auto d1 = pattern(4096, 21), d2 = pattern(4096, 22);
  rt.write(src, 0, d1);
  rt.write(src, 8192, d2);

  const std::uint64_t chains0 = rt.cluster().chip(0).dmac().chains_completed();
  std::vector<Runtime::CopyOp> ops{
      {.dst = dst_a, .dst_off = 0, .src = src, .src_off = 0, .bytes = 4096},
      {.dst = dst_b, .dst_off = 100, .src = src, .src_off = 8192,
       .bytes = 4096}};
  auto t = rt.memcpy_peer_batch(0, std::move(ops));
  sched.run();
  ASSERT_TRUE(t.result().is_ok()) << t.result().to_string();
  EXPECT_EQ(rt.cluster().chip(0).dmac().chains_completed(), chains0 + 1);

  std::vector<std::byte> out(4096);
  rt.read(dst_a, 0, out);
  EXPECT_EQ(out, d1);
  rt.read(dst_b, 100, out);
  EXPECT_EQ(out, d2);
}

TEST(Runtime, BatchRejectsNonLocalSources) {
  sim::Scheduler sched;
  Runtime rt(sched, small_config());
  auto a = rt.alloc_host(0, 4096).value();
  auto b = rt.alloc_host(1, 4096).value();
  std::vector<Runtime::CopyOp> ops{
      {.dst = a, .dst_off = 0, .src = b, .src_off = 0, .bytes = 64}};
  auto t = rt.memcpy_peer_batch(0, std::move(ops));  // src on node 1!
  sched.run();
  EXPECT_FALSE(t.result().is_ok());
  EXPECT_EQ(t.result().code(), ErrorCode::kPermissionDenied);
}

TEST(Runtime, EmptyCopiesAreValidatedNoOps) {
  sim::Scheduler sched;
  Runtime rt(sched, small_config());
  auto a = rt.alloc_host(0, 4096).value();
  auto b = rt.alloc_host(1, 4096).value();
  std::vector<Runtime::CopyOp> zero{
      {.dst = b, .dst_off = 0, .src = a, .src_off = 0, .bytes = 0}};
  std::vector<Runtime::CopyOp> bad{
      {.dst = b, .dst_off = 4000, .src = a, .src_off = 0, .bytes = 1024}};
  auto empty_batch = rt.memcpy_peer_batch(0, {});
  auto zero_batch = rt.memcpy_peer_batch(0, std::move(zero));
  auto zero_blocks = rt.memcpy_block_stride(b, 0, 1024, a, 0, 1024, 512, 0);
  auto bad_batch = rt.memcpy_peer_batch(0, std::move(bad));
  auto bad_empty = rt.memcpy_peer(b, 4097, a, 0, 0);  // starts past the end
  sched.run();
  EXPECT_TRUE(empty_batch.result().is_ok());
  EXPECT_TRUE(zero_batch.result().is_ok());
  EXPECT_TRUE(zero_blocks.result().is_ok());
  EXPECT_EQ(bad_batch.result().code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(bad_empty.result().code(), ErrorCode::kOutOfRange);
  // Nothing reached the fabric and nothing was counted.
  EXPECT_EQ(sched.now(), 0);
  EXPECT_EQ(rt.api_metrics().batches, 0u);
  EXPECT_EQ(rt.api_metrics().block_stride_ops, 0u);
}

TEST(Runtime, RejectedCopiesCountNothing) {
  sim::Scheduler sched;
  Runtime rt(sched, small_config());
  auto a = rt.alloc_host(0, 4096).value();
  auto b = rt.alloc_host(1, 4096).value();
  auto peer = rt.memcpy_peer(b, 4000, a, 0, 1024);  // DMA-sized
  auto reliable = rt.memcpy_peer_reliable(b, 4000, a, 0, 1024, {});
  sched.run();
  EXPECT_EQ(peer.result().code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(reliable.result().code(), ErrorCode::kOutOfRange);
  const ApiMetrics& m = rt.api_metrics();
  EXPECT_EQ(m.memcpy_ops, 0u);
  EXPECT_EQ(m.memcpy_bytes, 0u);
  EXPECT_EQ(m.pio_ops, 0u);
  EXPECT_EQ(m.dma_ops, 0u);
}

TEST(Runtime, EveryCopyCallRefusesAPartitionedNode) {
  // Cables 1 and 2 are node 2's two ring links: with both cut, no
  // dimension-order route from node 0 reaches it, and each copy call says
  // so instead of submitting a chain that can never complete.
  sim::Scheduler sched;
  TcaConfig config = small_config(4);
  config.fault_plan.cut(1, us(1));
  config.fault_plan.cut(2, us(1));
  Runtime rt(sched, config);
  auto src = rt.alloc_host(0, 8192).value();
  auto dst = rt.alloc_host(2, 8192).value();
  sched.run_until(us(20));  // both failovers serviced

  std::vector<Runtime::CopyOp> ops{
      {.dst = dst, .dst_off = 0, .src = src, .src_off = 0, .bytes = 4096}};
  auto peer = rt.memcpy_peer(dst, 0, src, 0, 4096);
  auto pio = rt.memcpy_pio(dst, 0, src, 0, 4096);
  auto reliable = rt.memcpy_peer_reliable(dst, 0, src, 0, 4096, {});
  auto batch = rt.memcpy_peer_batch(0, std::move(ops));
  auto strided = rt.memcpy_block_stride(dst, 0, 1024, src, 0, 1024, 512, 4);
  sched.run();
  for (const sim::Task<Status>* t : {&peer, &pio, &reliable, &batch, &strided}) {
    ASSERT_TRUE(t->done());
    EXPECT_EQ(t->result().code(), ErrorCode::kUnreachable)
        << t->result().to_string();
  }
}

TEST(Runtime, NotifyAndWaitFlagSynchronize) {
  sim::Scheduler sched;
  Runtime rt(sched, small_config());
  auto flag = rt.alloc_host(1, 64).value();

  bool producer_done = false;
  sim::spawn([](Runtime& r, Buffer f, bool& done) -> sim::Task<> {
    co_await sim::Delay(r.scheduler(), us(5));
    co_await r.notify(0, f, 0, 0xCAFE);
    done = true;
  }(rt, flag, producer_done));

  auto consumer = rt.wait_flag_ge(flag, 0, 0xCAFE);
  sched.run();
  EXPECT_TRUE(producer_done);
  ASSERT_TRUE(consumer.done());
  EXPECT_TRUE(consumer.result().is_ok());
  EXPECT_GE(sched.now(), us(5));
}

TEST(Runtime, WaitFlagGeWakesOnMonotonicCounters) {
  sim::Scheduler sched;
  Runtime rt(sched, small_config());
  auto flag = rt.alloc_host(1, 64).value();

  // Producer bumps the counter 1, 2, 3 at 5us intervals; a waiter for >= 2
  // wakes on the second bump even though it never sees the value 2 alone.
  sim::spawn([](Runtime& r, Buffer f) -> sim::Task<> {
    for (std::uint32_t v = 1; v <= 3; ++v) {
      co_await sim::Delay(r.scheduler(), us(5));
      co_await r.notify(0, f, 0, v);
    }
  }(rt, flag));

  auto waiter = rt.wait_flag_ge(flag, 0, 2);
  sched.run();
  ASSERT_TRUE(waiter.done());
  EXPECT_TRUE(waiter.result().is_ok());
  EXPECT_GE(sched.now(), us(10));

  // A waiter arriving after the counter already passed returns at once.
  const TimePs before = sched.now();
  auto late = rt.wait_flag_ge(flag, 0, 1);
  sched.run();
  EXPECT_TRUE(late.result().is_ok());
  EXPECT_EQ(sched.now(), before);
}

TEST(Runtime, WaitFlagGeTimesOutInsteadOfHanging) {
  sim::Scheduler sched;
  Runtime rt(sched, small_config());
  auto flag = rt.alloc_host(0, 64).value();

  auto waiter = rt.wait_flag_ge(flag, 0, 1, /*timeout_ps=*/us(50));
  sched.run();  // nobody ever signals: the run must go dry, not hang
  ASSERT_TRUE(waiter.done());
  EXPECT_EQ(waiter.result().code(), ErrorCode::kTimedOut);
  EXPECT_GE(sched.now(), us(50));
}

TEST(Runtime, MemcpyPioForcesPioAboveTheDmaThreshold) {
  sim::Scheduler sched;
  Runtime rt(sched, small_config());
  auto src = rt.alloc_host(0, 8192).value();
  auto dst = rt.alloc_host(1, 8192).value();
  auto data = pattern(4096, 33);
  rt.write(src, 0, data);

  // 4 KB would ride DMA under memcpy_peer's policy; memcpy_pio must move
  // it entirely with CPU stores — no chain completes.
  const std::uint64_t pio0 = rt.api_metrics().pio_ops;
  std::uint64_t chains0 = 0;
  for (int ch = 0; ch < calib::kDmaChannels; ++ch) {
    chains0 += rt.cluster().chip(0).dmac(ch).chains_completed();
  }
  auto t = rt.memcpy_pio(dst, 0, src, 0, 4096);
  sched.run();
  ASSERT_TRUE(t.result().is_ok()) << t.result().to_string();
  EXPECT_EQ(rt.api_metrics().pio_ops, pio0 + 1);
  std::uint64_t chains1 = 0;
  for (int ch = 0; ch < calib::kDmaChannels; ++ch) {
    chains1 += rt.cluster().chip(0).dmac(ch).chains_completed();
  }
  EXPECT_EQ(chains1, chains0);

  std::vector<std::byte> out(4096);
  rt.read(dst, 0, out);
  EXPECT_EQ(out, data);
}

TEST(Runtime, MemcpyPioRejectsGpuSources) {
  sim::Scheduler sched;
  Runtime rt(sched, small_config());
  auto src = rt.alloc_gpu(0, 0, 4096).value();
  auto dst = rt.alloc_host(1, 4096).value();
  auto t = rt.memcpy_pio(dst, 0, src, 0, 1024);  // CPU can't source BAR1
  sched.run();
  EXPECT_EQ(t.result().code(), ErrorCode::kInvalidArgument);
}

TEST(Runtime, MemcpyPeerReliableReportsZeroRetriesOnAHealthyFabric) {
  sim::Scheduler sched;
  Runtime rt(sched, small_config());
  auto src = rt.alloc_host(0, 32 << 10).value();
  auto dst = rt.alloc_host(1, 32 << 10).value();
  auto data = pattern(16 << 10, 44);
  rt.write(src, 0, data);

  std::uint32_t retries = 99;
  auto t = rt.memcpy_peer_reliable(
      dst, 0, src, 0, 16 << 10,
      driver::RetryPolicy{.max_attempts = 3, .timeout_ps = us(500)},
      &retries);
  sched.run();
  ASSERT_TRUE(t.result().is_ok()) << t.result().to_string();
  EXPECT_EQ(retries, 0u);
  std::vector<std::byte> out(16 << 10);
  rt.read(dst, 0, out);
  EXPECT_EQ(out, data);
}

TEST(Runtime, MemcpyPeerReliableRetriesAcrossACutCable) {
  sim::Scheduler sched;
  TcaConfig config = small_config(4);
  config.fault_plan.cut(0, us(5));  // dies with the first attempt in flight
  Runtime rt(sched, config);
  auto src = rt.alloc_host(0, 256 << 10).value();
  auto dst = rt.alloc_host(1, 256 << 10).value();
  auto data = pattern(256 << 10, 45);
  rt.write(src, 0, data);

  std::uint32_t retries = 0;
  auto t = rt.memcpy_peer_reliable(
      dst, 0, src, 0, 256 << 10,
      driver::RetryPolicy{.max_attempts = 3, .timeout_ps = us(150)},
      &retries);
  sched.run();
  ASSERT_TRUE(t.result().is_ok()) << t.result().to_string();
  EXPECT_GE(retries, 1u);
  EXPECT_GE(rt.cluster().failovers(), 1u);
  std::vector<std::byte> out(256 << 10);
  rt.read(dst, 0, out);
  EXPECT_EQ(out, data);  // delivered the long way around
}

// Per-node DMAC counters summed over every channel.
struct DmacTotals {
  std::uint64_t table_fetches = 0;
  std::uint64_t interrupts = 0;
};

DmacTotals dmac_totals(Runtime& rt, std::uint32_t node) {
  DmacTotals t;
  for (int ch = 0; ch < calib::kDmaChannels; ++ch) {
    const peach2::DmaController& d = rt.cluster().chip(node).dmac(ch);
    t.table_fetches += d.table_fetches();
    t.interrupts += d.interrupts();
  }
  return t;
}

TEST(Runtime, MemcpyPeerReliableSkipsTheTableFetchAndTheInterrupt) {
  sim::Scheduler sched;
  Runtime rt(sched, small_config());
  auto src = rt.alloc_gpu(0, 0, 4096).value();
  auto dst = rt.alloc_gpu(1, 0, 4096).value();
  auto data = pattern(1024, 46);
  rt.write(src, 0, data);

  const TimePs t0 = sched.now();
  auto chained = rt.memcpy_peer(dst, 0, src, 0, 1024);
  sched.run();
  ASSERT_TRUE(chained.result().is_ok());
  const TimePs chain_time = sched.now() - t0;
  const DmacTotals before = dmac_totals(rt, 0);
  EXPECT_EQ(before.table_fetches, 1u);
  EXPECT_EQ(before.interrupts, 1u);

  const TimePs t1 = sched.now();
  auto reliable = rt.memcpy_peer_reliable(dst, 2048, src, 0, 1024, {});
  sched.run();
  ASSERT_TRUE(reliable.result().is_ok()) << reliable.result().to_string();
  const TimePs reliable_time = sched.now() - t1;
  const DmacTotals after = dmac_totals(rt, 0);
  EXPECT_EQ(after.table_fetches, before.table_fetches);
  EXPECT_EQ(after.interrupts, before.interrupts);
  // The table fetch (0.9 us) and the interrupt (0.95 us) both leave the
  // path; either one alone would save less than this.
  EXPECT_LT(reliable_time, chain_time - us(1));

  std::vector<std::byte> out(1024);
  rt.read(dst, 2048, out);
  EXPECT_EQ(out, data);
}

TEST(Runtime, MemcpyPeerReliableTimesOutOnAStuckEngine) {
  sim::Scheduler sched;
  Runtime rt(sched, small_config());
  auto src = rt.alloc_host(0, 8192).value();
  auto dst = rt.alloc_host(1, 8192).value();
  for (int ch = 0; ch < calib::kDmaChannels; ++ch) {
    rt.cluster().chip(0).dmac(ch).set_stuck(true);
  }

  std::uint32_t retries = 0;
  auto t = rt.memcpy_peer_reliable(
      dst, 0, src, 0, 4096,
      driver::RetryPolicy{.max_attempts = 3, .timeout_ps = us(50)},
      &retries);
  // Bounded run: a wedged wait spins in poll iterations forever.
  sched.run_for(units::ms(2));
  ASSERT_TRUE(t.done());
  EXPECT_EQ(t.result().code(), ErrorCode::kTimedOut);
  EXPECT_EQ(retries, 2u);
  EXPECT_EQ(rt.cluster().driver(0).watchdog_timeouts(), 3u);
}

TEST(Runtime, PioLatencyBeatsDmaForTinyMessages) {
  sim::Scheduler sched;
  Runtime rt(sched, small_config());
  auto src = rt.alloc_host(0, 4096).value();
  auto dst = rt.alloc_host(1, 4096).value();
  auto data = pattern(64, 9);
  rt.write(src, 0, data);

  const TimePs t0 = sched.now();
  auto pio = rt.memcpy_peer(dst, 0, src, 0, 64);
  sched.run();
  const TimePs pio_time = sched.now() - t0;

  const TimePs t1 = sched.now();
  auto dma = rt.memcpy_peer(dst, 1024, src, 0, 1024);  // forced DMA
  sched.run();
  const TimePs dma_time = sched.now() - t1;

  EXPECT_LT(pio_time, us(1));
  EXPECT_GT(dma_time, us(3));  // descriptor fetch + interrupt dominate
}

TEST(RuntimeCreate, AcceptsValidConfig) {
  sim::Scheduler sched;
  auto rt = Runtime::create(sched, small_config());
  ASSERT_TRUE(rt.is_ok()) << rt.status().to_string();
  EXPECT_EQ(rt.value().node_count(), 2u);
  // The moved-into Runtime must be fully usable.
  auto buf = rt.value().alloc_host(0, 4096);
  EXPECT_TRUE(buf.is_ok());
}

TEST(RuntimeCreate, RejectsBadNodeCounts) {
  sim::Scheduler sched;
  EXPECT_FALSE(Runtime::create(sched, small_config(0)).is_ok());
  EXPECT_FALSE(Runtime::create(sched, small_config(1)).is_ok());
  EXPECT_FALSE(Runtime::create(sched, small_config(3)).is_ok());   // not 2^k
  EXPECT_FALSE(Runtime::create(sched, small_config(32)).is_ok());  // > 16
  EXPECT_EQ(Runtime::create(sched, small_config(3)).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST(RuntimeCreate, RejectsDualRingBelowFourNodes) {
  sim::Scheduler sched;
  TcaConfig cfg;
  cfg.spec = fabric::TopologySpec::dual_ring(2);
  EXPECT_FALSE(Runtime::create(sched, cfg).is_ok());
  cfg.spec = fabric::TopologySpec::dual_ring(4);
  EXPECT_TRUE(Runtime::create(sched, cfg).is_ok());
}

TEST(RuntimeCreate, DefaultConfigIsThePapersTwoNodeRing) {
  sim::Scheduler sched;
  auto rt = Runtime::create(sched, TcaConfig{});
  ASSERT_TRUE(rt.is_ok()) << rt.status().to_string();
  EXPECT_EQ(rt.value().node_count(), 2u);
  EXPECT_EQ(rt.value().cluster().topology(), fabric::TopologySpec::ring(2));
}

TEST(RuntimeCreate, RejectsAnExplicitlyEmptySpec) {
  sim::Scheduler sched;
  TcaConfig cfg = small_config();
  cfg.spec = fabric::TopologySpec{};
  EXPECT_EQ(Runtime::create(sched, cfg).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST(RuntimeCreate, RejectsBadBackingStores) {
  sim::Scheduler sched;
  TcaConfig cfg = small_config();
  cfg.node_config.gpu_count = 0;
  EXPECT_FALSE(Runtime::create(sched, cfg).is_ok());
  cfg = small_config();
  cfg.node_config.gpu_count = 5;
  EXPECT_FALSE(Runtime::create(sched, cfg).is_ok());
  cfg = small_config();
  cfg.node_config.host_backing_bytes = 1 << 20;  // descriptor table won't fit
  EXPECT_FALSE(Runtime::create(sched, cfg).is_ok());
  cfg = small_config();
  cfg.node_config.gpu_backing_bytes = 0;
  EXPECT_FALSE(Runtime::create(sched, cfg).is_ok());
}

TEST(RuntimeCreate, AllocGpuRejectsAGpuTheNodeDoesNotHave) {
  sim::Scheduler sched;
  TcaConfig cfg = small_config();
  cfg.node_config.gpu_count = 1;
  auto rt = Runtime::create(sched, cfg);
  ASSERT_TRUE(rt.is_ok()) << rt.status().to_string();
  EXPECT_TRUE(rt.value().alloc_gpu(0, 0, 4096).is_ok());
  EXPECT_EQ(rt.value().alloc_gpu(0, 1, 4096).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST(Buffer, GpuIndexIsEmptyForHostBuffers) {
  sim::Scheduler sched;
  Runtime rt(sched, small_config());
  auto host = rt.alloc_host(0, 4096).value();
  EXPECT_FALSE(host.gpu_index().has_value());
  auto g0 = rt.alloc_gpu(0, 0, 4096).value();
  auto g1 = rt.alloc_gpu(0, 1, 4096).value();
  ASSERT_TRUE(g0.gpu_index().has_value());
  EXPECT_EQ(*g0.gpu_index(), 0);
  ASSERT_TRUE(g1.gpu_index().has_value());
  EXPECT_EQ(*g1.gpu_index(), 1);
}

TEST(Runtime, ApiMetricsCountOpsAndPolicy) {
  sim::Scheduler sched;
  Runtime rt(sched, small_config());
  auto src = rt.alloc_host(0, 16 << 10).value();
  auto dst = rt.alloc_host(1, 16 << 10).value();
  rt.write(src, 0, pattern(4096, 90));

  auto small = rt.memcpy_peer(dst, 0, src, 0, 64);  // PIO path
  sched.run();
  auto big = rt.memcpy_peer(dst, 4096, src, 0, 4096);  // DMA path
  sched.run();
  ASSERT_TRUE(small.result().is_ok());
  ASSERT_TRUE(big.result().is_ok());

  const ApiMetrics& m = rt.api_metrics();
  EXPECT_EQ(m.memcpy_ops, 2u);
  EXPECT_EQ(m.memcpy_bytes, 64u + 4096u);
  EXPECT_EQ(m.pio_ops, 1u);
  EXPECT_EQ(m.dma_ops, 1u);

  obs::MetricRegistry reg;
  rt.export_metrics(reg);
  EXPECT_EQ(reg.counter_value("api.memcpy.ops"), 2u);
  EXPECT_EQ(reg.counter_value("api.memcpy.pio_ops"), 1u);
  EXPECT_EQ(reg.counter_value("api.memcpy.dma_ops"), 1u);
  // The fabric roll-up rides along in the same registry.
  EXPECT_TRUE(reg.snapshot().counters.contains("fabric.payload_bytes"));
}

}  // namespace
}  // namespace tca::api
