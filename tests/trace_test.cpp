// Tests for the trace subsystem: event capture, chrome://tracing JSON
// structure, and one trace per simulation.
#include <gtest/gtest.h>

#include <filesystem>

#include "common/trace.h"
#include "fabric/sub_cluster.h"

namespace tca {
namespace {

using fabric::SubCluster;
using fabric::SubClusterConfig;
using peach2::DmaDescriptor;
using peach2::DmaDirection;

SubClusterConfig two_nodes() {
  return SubClusterConfig{.spec = fabric::TopologySpec::ring(2),
                          .node_config = {.gpu_count = 2,
                                          .host_backing_bytes = 8 << 20,
                                          .gpu_backing_bytes = 4 << 20}};
}

/// One write chain of `length` bytes from node 0's internal RAM to node 1's
/// host memory.
sim::Task<TimePs> write_chain(SubCluster& tca, std::uint32_t length) {
  return tca.driver(0).run_chain(
      {DmaDescriptor{.src = tca.driver(0).internal_global(0),
                     .dst = tca.global_host(1, 0),
                     .length = length,
                     .direction = DmaDirection::kWrite}});
}

/// Runs one write chain alone in its own simulation, recording into `trace`
/// unless it is null; returns the chain's elapsed time.
TimePs run_write_chain(Trace* trace, std::uint32_t length) {
  sim::Scheduler sched;
  sched.set_trace(trace);
  SubCluster tca(sched, two_nodes());
  auto t = write_chain(tca, length);
  sched.run();
  EXPECT_TRUE(t.done());
  return t.result();
}

TEST(Trace, RecordsAllEventKinds) {
  Trace trace;
  trace.duration("track-a", "span", units::ns(10), units::ns(20));
  trace.instant("track-a", "tick", units::ns(15));
  trace.counter(trace.intern("track-b"), trace.intern("queue"), units::ns(15),
                3.0);
  EXPECT_EQ(trace.event_count(), 3u);

  const std::string json = trace.to_json();
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("track-a"), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST(Trace, EscapesQuotesInNames) {
  Trace trace;
  trace.instant("t", "say \"hi\"", 0);
  const std::string json = trace.to_json();
  EXPECT_NE(json.find("say \\\"hi\\\""), std::string::npos);
}

TEST(Trace, DmaChainProducesSpans) {
  Trace trace;
  run_write_chain(&trace, 4096);
  EXPECT_GT(trace.event_count(), 10u);  // TLPs + spans
  const std::string json = trace.to_json();
  EXPECT_NE(json.find("dmac/node0"), std::string::npos);
  EXPECT_NE(json.find("driver/node0"), std::string::npos);
  EXPECT_NE(json.find("cable/0-1"), std::string::npos);
  EXPECT_NE(json.find("slot0/node0"), std::string::npos);
  EXPECT_NE(json.find("interrupt"), std::string::npos);
}

// Two simulations in one process, stepped event by event in turn: the
// traced one records exactly the timeline it records when run alone, and
// nothing of the untraced one reaches it.
TEST(Trace, EachSimulationRecordsIntoItsOwnTrace) {
  Trace alone;
  run_write_chain(&alone, 4096);

  Trace trace;
  sim::Scheduler traced;
  sim::Scheduler untraced;
  traced.set_trace(&trace);
  SubCluster a(traced, two_nodes());
  SubCluster b(untraced, two_nodes());
  auto ta = write_chain(a, 4096);
  auto tb = write_chain(b, 16384);
  for (bool pending = true; pending;) {
    const bool a_ran = traced.step();
    const bool b_ran = untraced.step();
    pending = a_ran || b_ran;
  }
  ASSERT_TRUE(ta.done());
  ASSERT_TRUE(tb.done());
  EXPECT_EQ(untraced.trace(), nullptr);
  EXPECT_EQ(trace.to_json(), alone.to_json());
}

TEST(Trace, WriteJsonRoundTrips) {
  Trace trace;
  trace.duration("t", "x", 0, units::ns(5));
  const std::string path = ::testing::TempDir() + "/tcasim_trace.json";
  ASSERT_TRUE(trace.write_json(path).is_ok());

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string content(1 << 16, '\0');
  const std::size_t n = std::fread(content.data(), 1, content.size(), f);
  std::fclose(f);
  content.resize(n);
  EXPECT_EQ(content, trace.to_json());
}

// A full device: a trace smaller than the stdio buffer fails only when it
// is flushed at close.
TEST(Trace, WriteJsonReportsAFailedWrite) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  Trace trace;
  trace.instant("t", "x", 0);
  EXPECT_FALSE(trace.write_json("/dev/full").is_ok());
}

TEST(Trace, TracingDoesNotPerturbTiming) {
  Trace trace;
  EXPECT_EQ(run_write_chain(nullptr, 16384), run_write_chain(&trace, 16384));
}

}  // namespace
}  // namespace tca
