// Unit tests for the GPU device model: allocation, the GPUDirect token/pin
// dance, BAR translation rules, write sinking, serialized read service, and
// copy-engine timing.
#include <gtest/gtest.h>

#include "calib/calibration.h"
#include "common/rng.h"
#include "gpu/gpu_device.h"
#include "pcie/link.h"
#include "sim/scheduler.h"

namespace tca::gpu {
namespace {

using units::gbytes_per_second;
using units::ns;
using units::us;

constexpr std::uint64_t kBar = 0x20'0000'0000ull;

GpuConfig test_config() {
  return GpuConfig{.memory_bytes = 8 << 20, .bar1_base = kBar};
}

std::vector<std::byte> pattern(std::size_t n, std::uint8_t seed = 7) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((seed * 31 + i) & 0xff);
  }
  return v;
}

TEST(GpuDevice, MemAllocAligned) {
  sim::Scheduler sched;
  GpuDevice gpu(sched, 1, test_config());
  auto a = gpu.mem_alloc(100);
  ASSERT_TRUE(a.is_ok());
  auto b = gpu.mem_alloc(100);
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(a.value() % 256, 0u);
  EXPECT_EQ(b.value() % 256, 0u);
  EXPECT_GE(b.value(), a.value() + 100);
}

TEST(GpuDevice, MemAllocExhaustion) {
  sim::Scheduler sched;
  GpuDevice gpu(sched, 1, test_config());
  EXPECT_FALSE(gpu.mem_alloc(0).is_ok());
  EXPECT_TRUE(gpu.mem_alloc(4 << 20).is_ok());
  EXPECT_FALSE(gpu.mem_alloc(5 << 20).is_ok());  // over capacity now
}

TEST(GpuDevice, MemAllocRejectsSizesThatWrapMemory) {
  // cursor + bytes wraps past 2^64 back under the memory size.
  sim::Scheduler sched;
  GpuDevice gpu(sched, 1, test_config());
  ASSERT_TRUE(gpu.mem_alloc(4096).is_ok());
  EXPECT_FALSE(gpu.mem_alloc(~0ull - 100).is_ok());
  auto next = gpu.mem_alloc(4096);  // the failed call left the cursor alone
  ASSERT_TRUE(next.is_ok());
  EXPECT_EQ(next.value(), 4096u);
}

TEST(GpuDevice, TokenPinFlow) {
  sim::Scheduler sched;
  GpuDevice gpu(sched, 3, test_config());
  auto ptr = gpu.mem_alloc(128 << 10);
  ASSERT_TRUE(ptr.is_ok());

  auto token = gpu.get_p2p_token(ptr.value());
  ASSERT_TRUE(token.is_ok());

  auto bus = gpu.pin_pages(token.value(), ptr.value(), 128 << 10);
  ASSERT_TRUE(bus.is_ok());
  EXPECT_EQ(bus.value(), kBar + ptr.value());
  EXPECT_TRUE(gpu.is_pinned(ptr.value(), 128 << 10));
}

TEST(GpuDevice, PinRejectsForgedToken) {
  sim::Scheduler sched;
  GpuDevice gpu(sched, 3, test_config());
  P2pToken forged{.p2p_token = 0x1234, .va_space_token = 99};
  EXPECT_FALSE(gpu.pin_pages(forged, 0, 4096).is_ok());
}

TEST(GpuDevice, PinRejectsRangesThatWrap) {
  sim::Scheduler sched;
  GpuDevice gpu(sched, 3, test_config());
  auto token = gpu.get_p2p_token(4096);
  ASSERT_TRUE(token.is_ok());
  EXPECT_FALSE(gpu.pin_pages(token.value(), 4096, ~0ull - 100).is_ok());
  EXPECT_FALSE(gpu.is_pinned(4096, ~0ull - 100));
}

TEST(GpuDevice, PinGranularityIsPageWise) {
  sim::Scheduler sched;
  GpuDevice gpu(sched, 3, test_config());
  auto token = gpu.get_p2p_token(0);
  ASSERT_TRUE(token.is_ok());
  // Pin one byte: the whole surrounding page becomes accessible.
  ASSERT_TRUE(gpu.pin_pages(token.value(), 10, 1).is_ok());
  EXPECT_TRUE(gpu.is_pinned(0, calib::kGpuPinPageBytes));
  EXPECT_FALSE(gpu.is_pinned(calib::kGpuPinPageBytes, 1));
}

TEST(GpuDevice, TokenOutOfRangeRejected) {
  sim::Scheduler sched;
  GpuDevice gpu(sched, 3, test_config());
  EXPECT_FALSE(gpu.get_p2p_token(1ull << 40).is_ok());
}

/// Harness: a link whose host side we drive manually.
struct GpuOnLink {
  explicit GpuOnLink(sim::Scheduler& sched)
      : link(sched, {.gen = 2, .lanes = 8}), gpu(sched, 9, test_config()) {
    gpu.attach(link.end_b());
  }
  pcie::PcieLink link;
  GpuDevice gpu;
};

class HostSink : public pcie::TlpSink {
 public:
  void on_tlp(pcie::TlpPtr tlp, pcie::LinkPort& port) override {
    port.release_rx(tlp->wire_bytes());
    received.push_back(std::move(tlp));
  }
  std::vector<pcie::TlpPtr> received;
};

TEST(GpuDevice, BarWriteLandsInPinnedMemory) {
  sim::Scheduler sched;
  GpuOnLink rig(sched);
  HostSink host;
  rig.link.end_a().set_sink(&host);

  auto token = rig.gpu.get_p2p_token(0);
  ASSERT_TRUE(token.is_ok());
  ASSERT_TRUE(rig.gpu.pin_pages(token.value(), 0, 64 << 10).is_ok());

  auto data = pattern(256);
  rig.link.end_a().send(pcie::Tlp::mem_write(kBar + 0x100, data));
  sched.run();

  std::vector<std::byte> out(256);
  rig.gpu.peek(0x100, out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(rig.gpu.access_errors(), 0u);
}

TEST(GpuDevice, UnpinnedWriteDroppedAndCounted) {
  sim::Scheduler sched;
  GpuOnLink rig(sched);
  HostSink host;
  rig.link.end_a().set_sink(&host);

  auto data = pattern(64);
  rig.link.end_a().send(pcie::Tlp::mem_write(kBar + 0x100, data));
  sched.run();

  EXPECT_EQ(rig.gpu.access_errors(), 1u);
  std::vector<std::byte> out(64);
  rig.gpu.peek(0x100, out);
  EXPECT_NE(out, data);
}

TEST(GpuDevice, BarReadReturnsCompletionsWithData) {
  sim::Scheduler sched;
  GpuOnLink rig(sched);
  HostSink host;
  rig.link.end_a().set_sink(&host);

  auto token = rig.gpu.get_p2p_token(0);
  ASSERT_TRUE(token.is_ok());
  ASSERT_TRUE(rig.gpu.pin_pages(token.value(), 0, 64 << 10).is_ok());
  auto data = pattern(512, 3);
  rig.gpu.poke(0x400, data);

  rig.link.end_a().send(pcie::Tlp::mem_read(kBar + 0x400, 512, /*req=*/1, 5));
  sched.run();

  // 512 B in 256 B completion chunks.
  ASSERT_EQ(host.received.size(), 2u);
  std::vector<std::byte> got;
  for (const auto& cpl : host.received) {
    EXPECT_EQ(cpl->type, pcie::TlpType::kCompletion);
    EXPECT_EQ(cpl->tag, 5);
    got.insert(got.end(), cpl->payload.begin(), cpl->payload.end());
  }
  EXPECT_EQ(got, data);
}

TEST(GpuDevice, ReadServiceRateCapsAt830MBs) {
  // The paper: "the maximum DMA read performance is only 830 Mbytes/sec".
  // Saturate the read pipe and check the completion rate.
  sim::Scheduler sched;
  GpuOnLink rig(sched);
  HostSink host;
  rig.link.end_a().set_sink(&host);

  auto token = rig.gpu.get_p2p_token(0);
  ASSERT_TRUE(token.is_ok());
  constexpr std::uint64_t kTotal = 1 << 20;
  ASSERT_TRUE(rig.gpu.pin_pages(token.value(), 0, kTotal).is_ok());

  std::uint64_t issued = 0;
  std::function<void()> pump = [&] {
    while (issued < kTotal) {
      pcie::TlpPtr req = pcie::Tlp::mem_read(
          kBar + issued, 512, 1, static_cast<std::uint8_t>(issued / 512));
      if (!rig.link.end_a().can_send(*req)) return;
      rig.link.end_a().send(std::move(req));
      issued += 512;
    }
  };
  rig.link.end_a().set_tx_ready(pump);
  pump();
  sched.run();

  std::uint64_t bytes = 0;
  for (const auto& cpl : host.received) bytes += cpl->payload.size();
  EXPECT_EQ(bytes, kTotal);
  const double rate = units::bytes_per_second(bytes, sched.now());
  EXPECT_NEAR(rate / 1e6, 830.0, 25.0);
}

TEST(GpuDevice, MemcpyTimingHasOverheadPlusRate) {
  sim::Scheduler sched;
  GpuDevice gpu(sched, 1, test_config());
  auto data = pattern(1 << 20);

  sim::Task<> t = gpu.memcpy_h2d(data, 0);
  sched.run();
  ASSERT_TRUE(t.done());

  const double expected_s = units::to_s(calib::kCudaMemcpyOverheadPs) +
                            static_cast<double>(data.size()) /
                                calib::kCudaMemcpyBytesPerSec;
  EXPECT_NEAR(units::to_s(sched.now()), expected_s, 1e-9);

  std::vector<std::byte> out(data.size());
  gpu.peek(0, out);
  EXPECT_EQ(out, data);
}

TEST(GpuDevice, MemcpyD2HRoundTrip) {
  sim::Scheduler sched;
  GpuDevice gpu(sched, 1, test_config());
  auto data = pattern(4096, 9);
  gpu.poke(100, data);

  std::vector<std::byte> out(4096);
  sim::Task<> t = gpu.memcpy_d2h(100, out);
  sched.run();
  ASSERT_TRUE(t.done());
  EXPECT_EQ(out, data);
}

}  // namespace
}  // namespace tca::gpu
