// Self-tests of the benchmark: its statistics, its span accounting, and a
// few-op smoke run of every workload.
//
//   cmake --build .bench_build --target tcabench_test
//   ctest --test-dir .bench_build --output-on-failure
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace tcabench {
namespace {

TEST(Stats, MedianOfOddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({5, 1, 3}), 3);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({7}), 7);
  EXPECT_DOUBLE_EQ(median({}), 0);
}

TEST(Stats, TailLeavesTenSamplesBeyondIt) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  std::optional<Tail> t = tail(v);
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(t->value, 90);  // 91..100 lie beyond
  EXPECT_DOUBLE_EQ(t->pct, 90);

  v.resize(40);  // 100 down to 61
  t = tail(v);
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(t->value, 90);  // 30th of 61..100
  EXPECT_DOUBLE_EQ(t->pct, 75);

  EXPECT_FALSE(tail(std::vector<double>(10, 1.0)).has_value());
  t = tail(std::vector<double>(11, 2.0));
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(t->value, 2.0);
}

TEST(Spans, SelfTimeSubtractsDirectChildren) {
  SpanRecorder rec;
  const std::int32_t op = rec.add("op", 0, 100, -1, 7);
  const std::int32_t read = rec.add("Runtime::read", 10, 40, op, 7);
  const std::int32_t run = rec.add("Scheduler::run", 50, 90, op, 7);
  const std::int32_t nested = rec.add("Runtime::read", 60, 70, run, 7);

  const std::vector<std::int64_t> self = rec.self_ns();
  EXPECT_EQ(self[op], 30);  // 100 - 30 - 40
  EXPECT_EQ(self[read], 30);
  EXPECT_EQ(self[run], 30);  // 40 - 10
  EXPECT_EQ(self[nested], 10);

  const auto totals = rec.totals();
  EXPECT_EQ(totals.at("Runtime::read").count, 2u);
  EXPECT_EQ(totals.at("Runtime::read").total_ns, 40);
  EXPECT_EQ(totals.at("Runtime::read").self_ns, 40);
  EXPECT_EQ(totals.at("op").self_ns, 30);
}

TEST(Spans, ScopedSpansNestAndRespectTheSwitch) {
  SpanRecorder rec;
  { ScopedSpan ignored(rec, "op", 0); }
  EXPECT_TRUE(rec.spans().empty());

  rec.set_enabled(true);
  {
    ScopedSpan outer(rec, "op", 1);
    ScopedSpan inner(rec, "Scheduler::run", 1);
  }
  ScopedSpan after(rec, "export_metrics", SpanRecorder::kNoOp);
  ASSERT_EQ(rec.spans().size(), 3u);
  EXPECT_EQ(rec.spans()[0].parent, -1);
  EXPECT_EQ(rec.spans()[1].parent, 0);
  EXPECT_EQ(rec.spans()[2].parent, -1);
  EXPECT_LE(rec.spans()[0].start_ns, rec.spans()[1].start_ns);
  EXPECT_GE(rec.spans()[0].end_ns, rec.spans()[1].end_ns);
}

RunResult smoke(const std::string& workload, std::uint64_t seed,
                bool traced = false) {
  RunOptions opt;
  opt.workload = workload;
  opt.seed = seed;
  opt.traced = traced;
  opt.seconds = 0;  // kMinTimedOps timed ops
  SpanRecorder spans;
  return run_workload(opt, spans);
}

const Metric* find(const std::vector<Metric>& metrics,
                   const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

double metric(const std::vector<Metric>& metrics, const std::string& name) {
  const Metric* m = find(metrics, name);
  if (m == nullptr) ADD_FAILURE() << "no metric " << name;
  return m == nullptr ? 0 : m->value;
}

class Smoke : public ::testing::TestWithParam<std::string> {};

TEST_P(Smoke, EveryOpVerifiesAndTheDigestRepeats) {
  const RunResult plain = smoke(GetParam(), 1);
  for (const std::string& note : plain.notes) {
    EXPECT_EQ(note.find("FAILED"), std::string::npos) << note;
  }
  EXPECT_TRUE(plain.correct);
  EXPECT_EQ(plain.failed, 0u);
  EXPECT_EQ(plain.attempted, kWarmupOps + kMinTimedOps);
  EXPECT_TRUE(plain.per_layer.empty());

  // A traced rerun of the same seed simulates exactly the same thing.
  const RunResult traced = smoke(GetParam(), 1, true);
  EXPECT_TRUE(traced.correct);
  EXPECT_EQ(traced.digest, plain.digest);
  EXPECT_EQ(metric(traced.end_to_end, "sim_us_p50"),
            metric(plain.end_to_end, "sim_us_p50"));
  EXPECT_FALSE(traced.per_layer.empty());
  for (const char* name : {"host_rel_p50", "sim_us_p50", "peak_rss_mb"}) {
    EXPECT_GT(metric(plain.end_to_end, name), 0) << name;
  }
  // chaos_rounds builds its fabrics inside each op: it has no set-up.
  if (GetParam() == "chaos_rounds") {
    EXPECT_EQ(find(plain.end_to_end, "setup_s"), nullptr);
  } else {
    EXPECT_GT(metric(plain.end_to_end, "setup_s"), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, Smoke,
                         ::testing::ValuesIn(workload_names()));

TEST(SmokeSeeds, ChaosDigestFollowsTheSeed) {
  EXPECT_NE(smoke("chaos_rounds", 1).digest, smoke("chaos_rounds", 2).digest);
}

TEST(SmokeSeeds, SimulatedShapesFollowTheSeed) {
  for (const char* w : {"pio_pingpong", "dma_stream", "allreduce_8n"}) {
    EXPECT_NE(smoke(w, 1).digest, smoke(w, 2).digest) << w;
  }
}

/// The metric names BENCHMARK.json declares under `section`.
std::vector<std::string> declared(const std::string& section) {
  std::ifstream in(TCABENCH_MANIFEST);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  std::size_t pos = text.find("\"" + section + "\"");
  const std::size_t end = text.find(']', pos);
  std::vector<std::string> names;
  const std::string key = "\"name\": \"";
  while ((pos = text.find(key, pos)) != std::string::npos && pos < end) {
    pos += key.size();
    names.push_back(text.substr(pos, text.find('"', pos) - pos));
  }
  return names;
}

TEST(Manifest, ResultLinesCarryExactlyTheDeclaredMetrics) {
  const RunResult traced = smoke("pio_pingpong", 3, true);
  std::vector<std::string> e2e, layer;
  for (const Metric& m : traced.end_to_end) e2e.push_back(m.name);
  for (const Metric& m : traced.per_layer) layer.push_back(m.name);
  EXPECT_EQ(e2e, declared("end_to_end"));
  EXPECT_EQ(layer, declared("per_layer"));
}

}  // namespace
}  // namespace tcabench
