// Unit tests for src/common: units, errors, RNG, stats, table printing.
#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "common/error.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/units.h"

namespace tca {
namespace {

using units::ns;
using units::us;

TEST(Units, Constructors) {
  EXPECT_EQ(ns(1), 1000);
  EXPECT_EQ(us(1), 1'000'000);
  EXPECT_EQ(units::ms(1), 1'000'000'000);
  EXPECT_EQ(units::ps(42), 42);
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(units::to_ns(ns(782)), 782.0);
  EXPECT_DOUBLE_EQ(units::to_us(us(3)), 3.0);
  EXPECT_DOUBLE_EQ(units::to_s(units::kSecond), 1.0);
}

TEST(Units, SizeHelpers) {
  EXPECT_EQ(units::kib(4), 4096u);
  EXPECT_EQ(units::mib(1), 1u << 20);
  EXPECT_EQ(units::gib(512), 512ull << 30);
}

TEST(Units, Bandwidth) {
  // 4096 bytes in 1 us = 4.096 GB/s.
  EXPECT_DOUBLE_EQ(units::bytes_per_second(4096, us(1)), 4.096e9);
  EXPECT_DOUBLE_EQ(units::gbytes_per_second(4096, us(1)), 4.096);
  EXPECT_DOUBLE_EQ(units::bytes_per_second(100, 0), 0.0);
}

TEST(Units, PaperPeakFormula) {
  // The paper's theoretical peak: 4 GB/s * 256/280 = 3.657 GB/s, i.e. a
  // 280-wire-byte TLP carrying 256 payload bytes every 70 ns.
  const double peak = units::gbytes_per_second(256, ns(70));
  EXPECT_NEAR(peak, 3.657, 0.01);
}

TEST(Units, FormatTime) {
  EXPECT_EQ(units::format_time(ns(782)), "782 ns");
  EXPECT_EQ(units::format_time(units::ps(500)), "500 ps");
  EXPECT_EQ(units::format_time(0), "0 ps");
}

TEST(Units, FormatSize) {
  EXPECT_EQ(units::format_size(256), "256 B");
  EXPECT_EQ(units::format_size(4096), "4 KiB");
  EXPECT_EQ(units::format_size(1u << 20), "1 MiB");
}

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s(ErrorCode::kUnreachable, "no route to node 3");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), ErrorCode::kUnreachable);
  EXPECT_EQ(s.to_string(), "UNREACHABLE: no route to node 3");
}

TEST(Status, EveryErrorCodeRoundTripsThroughToString) {
  // A new ErrorCode cannot ship unnamed: every value in the enum's range
  // must render to a unique, non-fallback string.
  std::set<std::string> names;
  for (int i = 0; i < kErrorCodeCount; ++i) {
    const char* name = to_string(static_cast<ErrorCode>(i));
    EXPECT_STRNE(name, "UNKNOWN") << "ErrorCode " << i << " has no name";
    EXPECT_TRUE(names.insert(name).second) << name << " used twice";
  }
  EXPECT_STREQ(to_string(static_cast<ErrorCode>(kErrorCodeCount)), "UNKNOWN");
}

TEST(Status, RecoveryCodesRender) {
  EXPECT_STREQ(to_string(ErrorCode::kTimedOut), "TIMED_OUT");
  EXPECT_STREQ(to_string(ErrorCode::kLinkDown), "LINK_DOWN");
}

TEST(Result, Value) {
  Result<int> r(42);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(Result, Error) {
  Result<int> r(Status{ErrorCode::kBusy, "channel active"});
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kBusy);
}

// Checked in every build type: the error is what the caller needs to see,
// not whatever an empty value happens to hold.
TEST(Result, ValueOfAnErrorAbortsWithItsStatus) {
  Result<int> r(Status{ErrorCode::kResourceExhausted, "GDDR exhausted"});
  const Result<int>& cr = r;
  EXPECT_DEATH((void)r.value(), "RESOURCE_EXHAUSTED: GDDR exhausted");
  EXPECT_DEATH((void)cr.value(), "RESOURCE_EXHAUSTED: GDDR exhausted");
  EXPECT_DEATH((void)std::move(r).value(),
               "RESOURCE_EXHAUSTED: GDDR exhausted");
}

TEST(Rng, Deterministic) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng r(99);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

TEST(Rng, NextInInclusive) {
  Rng r(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.next_in(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all values hit
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, FillCoversWholeSpan) {
  Rng r(11);
  std::vector<std::byte> buf(37, std::byte{0});
  r.fill(buf);
  int nonzero = 0;
  for (auto b : buf) nonzero += (b != std::byte{0});
  EXPECT_GT(nonzero, 20);  // overwhelmingly likely for random bytes
}

TEST(SampleSeries, Percentiles) {
  SampleSeries s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(99), 99.01, 0.02);
}

TEST(SampleSeries, AddAfterQueryResorts) {
  SampleSeries s;
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 10.0);
  s.add(20.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 20.0);
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 5.0);
}

TEST(TablePrinter, AlignsAndCounts) {
  TablePrinter t({"Size", "BW"});
  t.add_row({"4 KiB", "3.30"});
  t.add_row({"64 B", "0.45"});
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_EQ(TablePrinter::cell(3.297, 2), "3.30");
  EXPECT_EQ(TablePrinter::cell(std::uint64_t{255}), "255");
}

}  // namespace
}  // namespace tca
