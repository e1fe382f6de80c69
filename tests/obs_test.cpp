// Tests for the observability layer: MetricRegistry semantics, JSON
// round-trip through MetricsSnapshot, and a system-level conservation check
// that the per-link byte counters exactly account for payload + TLP
// overhead on a 4-node ring transfer.
#include <gtest/gtest.h>

#include <filesystem>

#include "api/tca.h"
#include "common/trace.h"
#include "obs/metrics.h"

namespace tca::obs {
namespace {

TEST(MetricRegistry, CounterFindOrCreateAccumulates) {
  MetricRegistry reg;
  reg.counter("node0.peach2.dmac.ch2.descriptors").add();
  reg.counter("node0.peach2.dmac.ch2.descriptors").add(4);
  EXPECT_EQ(reg.counter_value("node0.peach2.dmac.ch2.descriptors"), 5u);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_TRUE(snap.counters.contains("node0.peach2.dmac.ch2.descriptors"));
  EXPECT_FALSE(snap.counters.contains("node0.peach2.dmac.ch3.descriptors"));
  EXPECT_EQ(reg.counter_value("absent"), 0u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricRegistry, ReferencesAreStableAcrossInsertions) {
  MetricRegistry reg;
  Counter& a = reg.counter("a");
  // Force rebalancing-ish churn; std::map nodes must not move.
  for (int i = 0; i < 256; ++i) {
    reg.counter(std::string("n").append(std::to_string(i))).add();
  }
  a.add(7);
  EXPECT_EQ(reg.counter_value("a"), 7u);
}

TEST(MetricRegistry, GaugeKeepsLatestValue) {
  MetricRegistry reg;
  reg.gauge("fabric.node_count").set(4);
  reg.gauge("fabric.node_count").set(8);
  EXPECT_DOUBLE_EQ(reg.snapshot().gauges.at("fabric.node_count"), 8.0);
}

TEST(MetricRegistry, HistogramMomentsAndPercentiles) {
  MetricRegistry reg;
  Histogram& h = reg.histogram("lat");
  for (int i = 1; i <= 100; ++i) h.record(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_NEAR(h.percentile(50), 50.0, 1.0);
  EXPECT_NEAR(h.percentile(95), 95.0, 1.0);
  EXPECT_NEAR(h.percentile(99), 99.0, 1.0);
  EXPECT_TRUE(reg.snapshot().histograms.contains("lat"));
}

TEST(MetricRegistry, EmptyHistogramReadsZero) {
  MetricRegistry reg;
  const Histogram& h = reg.histogram("lat");
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.percentile(50), 0.0);
}

TEST(MetricRegistry, JsonRoundTripsThroughSnapshot) {
  MetricRegistry reg;
  reg.counter("pcie.cable.0-1.fwd.wire_bytes").set(8960);
  reg.counter("fabric.tlps").set(32);
  reg.gauge("fabric.node_count").set(4);
  Histogram& h = reg.histogram("api.memcpy.latency_ps");
  for (int i = 1; i <= 10; ++i) h.record(i * 1000);

  const std::string json = reg.to_json();
  auto parsed = MetricsSnapshot::from_json(json);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const MetricsSnapshot& snap = parsed.value();
  EXPECT_EQ(snap.counters.at("pcie.cable.0-1.fwd.wire_bytes"), 8960u);
  EXPECT_EQ(snap.counters.at("fabric.tlps"), 32u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("fabric.node_count"), 4.0);
  const HistogramSummary& hs = snap.histograms.at("api.memcpy.latency_ps");
  EXPECT_EQ(hs.count, 10u);
  EXPECT_DOUBLE_EQ(hs.mean, 5500.0);
  EXPECT_DOUBLE_EQ(hs.min, 1000.0);
  EXPECT_DOUBLE_EQ(hs.max, 10000.0);

  // A snapshot of the same registry agrees with the parsed document.
  const MetricsSnapshot direct = reg.snapshot();
  EXPECT_EQ(direct.counters, snap.counters);
  EXPECT_EQ(direct.gauges, snap.gauges);
}

// A full device: buffered output fails only when it is flushed at close.
TEST(MetricRegistry, WriteJsonReportsAFailedWrite) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  MetricRegistry reg;
  reg.counter("fabric.tlps").set(32);
  EXPECT_FALSE(reg.write_json("/dev/full").is_ok());
}

TEST(MetricRegistry, EmitTraceCountersRecordsEachCounterAndGauge) {
  MetricRegistry reg;
  reg.counter("fabric.tlps").set(32);
  reg.gauge("fabric.node_count").set(4);
  reg.histogram("api.memcpy.latency_ps").record(1000);  // not mirrored
  Trace trace;
  reg.emit_trace_counters(trace, units::ns(7));
  EXPECT_EQ(trace.to_json(),
            "{\"traceEvents\":[\n"
            "{\"name\":\"fabric.tlps\",\"ph\":\"C\",\"pid\":1,\"tid\":1,"
            "\"ts\":0.007,\"args\":{\"value\":32}},\n"
            "{\"name\":\"fabric.node_count\",\"ph\":\"C\",\"pid\":1,"
            "\"tid\":1,\"ts\":0.007,\"args\":{\"value\":4}},\n"
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
            "\"args\":{\"name\":\"metrics\"}}\n"
            "]}\n");
}

TEST(MetricsSnapshot, FromJsonRejectsMalformedDocuments) {
  EXPECT_FALSE(MetricsSnapshot::from_json("").is_ok());
  EXPECT_FALSE(MetricsSnapshot::from_json("not json").is_ok());
  EXPECT_FALSE(MetricsSnapshot::from_json("{\"counters\": {}}").is_ok());
  EXPECT_FALSE(
      MetricsSnapshot::from_json(
          "{\"meta\": {\"schema\": \"other-v9\"}, \"counters\": {}}")
          .is_ok());
  // Minimal valid document.
  auto ok = MetricsSnapshot::from_json(
      "{\"meta\": {\"schema\": \"tca-metrics-v1\"}, \"counters\": {},"
      " \"gauges\": {}, \"histograms\": {}}");
  EXPECT_TRUE(ok.is_ok()) << ok.status().to_string();
}

TEST(SamplingGate, DefaultsOffAndToggles) {
  EXPECT_FALSE(sampling_enabled());
  set_sampling_enabled(true);
  EXPECT_TRUE(sampling_enabled());
  set_sampling_enabled(false);
  EXPECT_FALSE(sampling_enabled());
}

// ---------------------------------------------------------------------------
// System-level conservation: every byte injected at node 0 must show up,
// exactly accounted, on each cable it crosses and in the destination host.
// ---------------------------------------------------------------------------

class Conservation : public ::testing::Test {
 protected:
  static api::TcaConfig config() {
    return api::TcaConfig{
        .spec = fabric::TopologySpec::ring(4),
        .node_config = {.gpu_count = 2,
                        .host_backing_bytes = 8 << 20,
                        .gpu_backing_bytes = 4 << 20}};
  }
};

TEST_F(Conservation, RingTransferBytesAreExactlyAccounted) {
  sim::Scheduler sched;
  auto rt = api::Runtime::create(sched, config());
  ASSERT_TRUE(rt.is_ok());
  api::Runtime& tca = rt.value();

  constexpr std::uint64_t kBytes = 8192;  // > PIO threshold: DMA path
  auto src = tca.alloc_host(0, 64 << 10).value();
  auto dst = tca.alloc_host(2, 64 << 10).value();
  std::vector<std::byte> data(kBytes);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i * 7 + 1);
  }
  tca.write(src, 0, data);

  MetricRegistry before;
  tca.export_metrics(before);

  auto t = tca.memcpy_peer(dst, 0, src, 0, kBytes);
  sched.run();
  ASSERT_TRUE(t.result().is_ok()) << t.result().to_string();

  MetricRegistry after;
  tca.export_metrics(after);
  auto delta = [&](std::string_view name) {
    return after.counter_value(name) - before.counter_value(name);
  };

  // node0 -> node2 on a 4-ring: clockwise and counter-clockwise are tied
  // (2 hops each); the router breaks ties eastward, so the payload crosses
  // cables 0-1 and 1-2 in the forward direction.
  constexpr std::uint64_t kTlps =
      (kBytes + calib::kMaxPayloadBytes - 1) / calib::kMaxPayloadBytes;
  constexpr std::uint64_t kWire =
      kBytes + kTlps * calib::kTlpWithDataOverheadBytes;
  for (const char* cable : {"pcie.cable.0-1.fwd", "pcie.cable.1-2.fwd"}) {
    const std::string base(cable);
    EXPECT_EQ(delta(base + ".payload_bytes"), kBytes) << cable;
    EXPECT_EQ(delta(base + ".tlps"), kTlps) << cable;
    EXPECT_EQ(delta(base + ".wire_bytes"), kWire) << cable;
    EXPECT_EQ(delta(base + ".replays"), 0u) << cable;
  }
  // Nothing travelled back along the data path...
  EXPECT_EQ(delta("pcie.cable.0-1.rev.payload_bytes"), 0u);
  EXPECT_EQ(delta("pcie.cable.1-2.rev.payload_bytes"), 0u);
  // ...the PEARL ack returns the other way around the ring (2->3->0) as
  // header-only vendor messages: wire bytes but zero payload.
  EXPECT_GT(delta("pcie.cable.2-3.fwd.wire_bytes"), 0u);
  EXPECT_GT(delta("pcie.cable.3-0.fwd.wire_bytes"), 0u);
  EXPECT_EQ(delta("pcie.cable.2-3.fwd.payload_bytes"), 0u);
  EXPECT_EQ(delta("pcie.cable.3-0.fwd.payload_bytes"), 0u);

  // Fabric payload roll-up: the payload crossed exactly two cables.
  EXPECT_EQ(delta("fabric.payload_bytes"), 2 * kBytes);

  // Conservation at the endpoints: the destination host absorbed exactly
  // the bytes injected; the source host was read at least that much (the
  // descriptor fetch rides the same link).
  EXPECT_EQ(delta("node2.host.bytes_written"), kBytes);
  EXPECT_GE(delta("node0.host.bytes_read"), kBytes);
  EXPECT_EQ(delta("fabric.dma.bytes_written"), kBytes);
  EXPECT_EQ(delta("fabric.dma.errors"), 0u);
  EXPECT_EQ(delta("fabric.unroutable"), 0u);
}

TEST_F(Conservation, PioStoresBypassDmaCounters) {
  sim::Scheduler sched;
  auto rt = api::Runtime::create(sched, config());
  ASSERT_TRUE(rt.is_ok());
  api::Runtime& tca = rt.value();

  constexpr std::uint64_t kBytes = 256;  // <= PIO threshold
  auto src = tca.alloc_host(0, 4096).value();
  auto dst = tca.alloc_host(1, 4096).value();
  std::vector<std::byte> data(kBytes, std::byte{0x5a});
  tca.write(src, 0, data);

  MetricRegistry before;
  tca.export_metrics(before);
  auto t = tca.memcpy_peer(dst, 0, src, 0, kBytes);
  sched.run();
  ASSERT_TRUE(t.result().is_ok());
  MetricRegistry after;
  tca.export_metrics(after);
  auto delta = [&](std::string_view name) {
    return after.counter_value(name) - before.counter_value(name);
  };

  EXPECT_EQ(delta("node0.driver.pio_stores"), 1u);
  EXPECT_EQ(delta("node0.driver.pio_bytes"), kBytes);
  EXPECT_EQ(delta("fabric.dma.chains"), 0u);
  EXPECT_EQ(delta("pcie.cable.0-1.fwd.payload_bytes"), kBytes);
  EXPECT_EQ(delta("node1.host.bytes_written"), kBytes);
}

}  // namespace
}  // namespace tca::obs
