// Unit tests for the memory substrate: RangeMap decode and Dram storage.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "memory/dram.h"
#include "memory/range_map.h"

namespace tca::mem {
namespace {

TEST(RangeMap, FindInsideAndOutside) {
  RangeMap<std::string> map;
  ASSERT_TRUE(map.add(0x1000, 0x100, "host").is_ok());
  ASSERT_TRUE(map.add(0x2000, 0x200, "gpu0").is_ok());

  ASSERT_NE(map.find(0x1000), nullptr);
  EXPECT_EQ(map.find(0x1000)->value, "host");
  EXPECT_EQ(map.find(0x10ff)->value, "host");
  EXPECT_EQ(map.find(0x1100), nullptr);  // one past the end
  EXPECT_EQ(map.find(0x0fff), nullptr);
  EXPECT_EQ(map.find(0x21ff)->value, "gpu0");
}

TEST(RangeMap, RejectsOverlaps) {
  RangeMap<int> map;
  ASSERT_TRUE(map.add(0x1000, 0x100, 1).is_ok());
  EXPECT_FALSE(map.add(0x1080, 0x100, 2).is_ok());  // tail overlap
  EXPECT_FALSE(map.add(0x0f80, 0x100, 3).is_ok());  // head overlap
  EXPECT_FALSE(map.add(0x1000, 0x100, 4).is_ok());  // exact duplicate
  EXPECT_FALSE(map.add(0x0800, 0x1000, 5).is_ok()); // engulfing
  EXPECT_TRUE(map.add(0x1100, 0x100, 6).is_ok());   // adjacent is fine
  EXPECT_TRUE(map.add(0x0f00, 0x100, 7).is_ok());   // adjacent below
}

TEST(RangeMap, RejectsEmptyAndWrapping) {
  RangeMap<int> map;
  EXPECT_FALSE(map.add(0x1000, 0, 1).is_ok());
  EXPECT_FALSE(map.add(~0ull - 10, 100, 2).is_ok());
}

TEST(RangeMap, FindSpanRequiresFullContainment) {
  RangeMap<int> map;
  ASSERT_TRUE(map.add(0x1000, 0x100, 1).is_ok());
  EXPECT_NE(map.find_span(0x1000, 0x100), nullptr);
  EXPECT_NE(map.find_span(0x10f0, 0x10), nullptr);
  EXPECT_EQ(map.find_span(0x10f0, 0x11), nullptr);  // crosses the boundary
  EXPECT_EQ(map.find_span(0x2000, 1), nullptr);
}

TEST(RangeMap, RemoveByBase) {
  RangeMap<int> map;
  ASSERT_TRUE(map.add(0x1000, 0x100, 1).is_ok());
  EXPECT_TRUE(map.remove(0x1000));
  EXPECT_FALSE(map.remove(0x1000));
  EXPECT_EQ(map.find(0x1000), nullptr);
  EXPECT_TRUE(map.add(0x1000, 0x100, 2).is_ok());  // reusable after removal
}

TEST(RangeMap, IterationIsOrdered) {
  RangeMap<int> map;
  ASSERT_TRUE(map.add(0x3000, 0x100, 3).is_ok());
  ASSERT_TRUE(map.add(0x1000, 0x100, 1).is_ok());
  ASSERT_TRUE(map.add(0x2000, 0x100, 2).is_ok());
  std::vector<int> order;
  for (const auto& [base, range] : map) order.push_back(range.value);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Dram, ReadBackWhatWasWritten) {
  Dram dram(4096);
  Rng rng(5);
  std::vector<std::byte> data(512);
  rng.fill(data);
  dram.write(128, data);

  std::vector<std::byte> out(512);
  dram.read(128, out);
  EXPECT_EQ(out, data);
}

TEST(Dram, ViewsAliasStorage) {
  Dram dram(1024);
  std::vector<std::byte> data{std::byte{0xAA}, std::byte{0xBB}};
  dram.write(10, data);
  auto view = dram.view(10, 2);
  EXPECT_EQ(view[0], std::byte{0xAA});
  EXPECT_EQ(view[1], std::byte{0xBB});

  auto mut = dram.view_mut(10, 1);
  mut[0] = std::byte{0xCC};
  EXPECT_EQ(dram.view(10, 1)[0], std::byte{0xCC});
}

long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

bool all_zero(std::span<const std::byte> bytes) {
  return std::all_of(bytes.begin(), bytes.end(),
                     [](std::byte b) { return b == std::byte{0}; });
}

// Backing size costs address space, not set-up time: building a 256 MiB
// store and reading a never-written page from its middle faults in a few
// pages, where an eagerly zeroed store faults in all 65536.
TEST(Dram, UnwrittenBytesReadZeroWithoutTouchingTheStore) {
  constexpr std::uint64_t kSize = 256ull << 20;
  std::vector<std::byte> out(4096, std::byte{0xFF});
  const long before = minor_faults();
  Dram dram(kSize);
  dram.read(kSize / 2, out);
  const long faults = minor_faults() - before;
  EXPECT_TRUE(all_zero(out));
  EXPECT_TRUE(all_zero(dram.view(kSize / 2 + 8192, 4096)));
  EXPECT_LT(faults, 64);
}

TEST(Dram, SpansStraddleAPageBoundary) {
  constexpr std::uint64_t kPage = 4096;
  Dram dram(3 * kPage);
  Rng rng(7);
  std::vector<std::byte> data(512);
  rng.fill(data);
  const std::uint64_t offset = 2 * kPage - 256;  // 256 B each side
  dram.write(offset, data);

  std::vector<std::byte> out(512);
  dram.read(offset, out);
  EXPECT_EQ(out, data);
  auto view = dram.view(offset, data.size());
  EXPECT_TRUE(std::equal(view.begin(), view.end(), data.begin()));
  EXPECT_TRUE(all_zero(dram.view(0, offset)));
  EXPECT_TRUE(all_zero(dram.view(offset + 512, 3 * kPage - offset - 512)));
}

TEST(Dram, SpanEndingAtTheLastByte) {
  Dram dram(8192);
  std::vector<std::byte> data(64, std::byte{0x3C});
  dram.write(dram.size() - 64, data);

  std::vector<std::byte> out(64);
  dram.read(dram.size() - 64, out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(dram.view(dram.size() - 1, 1)[0], std::byte{0x3C});
  EXPECT_TRUE(dram.view(dram.size(), 0).empty());
}

TEST(Dram, ZeroSizeStore) {
  Dram dram(0);
  EXPECT_EQ(dram.size(), 0u);
  EXPECT_TRUE(dram.view(0, 0).empty());
  EXPECT_TRUE(dram.view_mut(0, 0).empty());
  dram.write(0, {});
  dram.read(0, {});
}

// The bounds checks are TCA_ASSERTs, live in every build type: the mapping
// has no sanitizer redzones, so they are the only guard against an overrun.
TEST(Dram, OutOfRangeWriteAborts) {
  Dram dram(4096);
  std::vector<std::byte> data(16);
  EXPECT_DEATH(dram.write(4096 - 15, data), "TCA_ASSERT failed");
  EXPECT_DEATH(dram.write(4097, {}), "TCA_ASSERT failed");
}

TEST(Dram, OutOfRangeReadAborts) {
  Dram dram(4096);
  std::vector<std::byte> out(16);
  EXPECT_DEATH(dram.read(4096 - 15, out), "TCA_ASSERT failed");
  EXPECT_DEATH(Dram(0).read(0, out), "TCA_ASSERT failed");
}

TEST(Dram, OutOfRangeViewAborts) {
  Dram dram(4096);
  EXPECT_DEATH((void)dram.view(4096, 1), "TCA_ASSERT failed");
  EXPECT_DEATH((void)dram.view_mut(4000, 97), "TCA_ASSERT failed");
}

// offset + len wrapping past 2^64 must not slip under the bound.
TEST(Dram, WrappingRangeAborts) {
  Dram dram(4096);
  EXPECT_DEATH((void)dram.view(1, ~0ull), "TCA_ASSERT failed");
  EXPECT_DEATH((void)dram.view_mut(~0ull, 1), "TCA_ASSERT failed");
}

TEST(Dram, FailedMappingAbortsAtConstruction) {
  // 2^62 bytes exceeds any user address space.
  EXPECT_DEATH(Dram(1ull << 62), "mem::Dram: cannot map");
}

}  // namespace
}  // namespace tca::mem
