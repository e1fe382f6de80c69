// Unit tests for PEACH2 building blocks: the TCA address layout, the
// mask/bound routing table, DMA descriptor serialization, and the BAR0
// register map's validators.
#include <algorithm>
#include <array>
#include <iterator>

#include <gtest/gtest.h>

#include "calib/calibration.h"
#include "peach2/descriptor.h"
#include "peach2/registers.h"
#include "peach2/routing.h"
#include "peach2/tca_layout.h"

namespace tca::peach2 {
namespace {

TEST(TcaLayout, CreateValidates) {
  EXPECT_TRUE(TcaLayout::create(0, 1ull << 39, 8).is_ok());
  EXPECT_FALSE(TcaLayout::create(0, 1ull << 39, 3).is_ok());  // not pow2
  // Torus-scale fabrics partition the window beyond the paper's 16-node
  // ring (the ring bound now lives in fabric::TopologySpec::validate).
  EXPECT_TRUE(TcaLayout::create(0, 1ull << 39, 32).is_ok());
  EXPECT_TRUE(TcaLayout::create(0, 1ull << 39, 1024).is_ok());
  EXPECT_FALSE(TcaLayout::create(0, 1ull << 39, 2048).is_ok());  // > limit
  EXPECT_FALSE(TcaLayout::create(0, (1ull << 39) - 8, 8).is_ok());
  EXPECT_FALSE(TcaLayout::create(123, 1ull << 39, 8).is_ok());  // unaligned
}

TEST(TcaLayout, PaperGeometry) {
  // 512 GB window, 16 nodes -> 32 GB slices, 8 GB blocks.
  auto r = TcaLayout::create(calib::kTcaWindowBase, calib::kTcaWindowBytes, 16);
  ASSERT_TRUE(r.is_ok());
  const TcaLayout& l = r.value();
  EXPECT_EQ(l.slice_size(), 32ull << 30);
  EXPECT_EQ(l.block_size(), 8ull << 30);
}

TEST(TcaLayout, EncodeDecodeRoundTrip) {
  auto l = TcaLayout::create(1ull << 40, 1ull << 39, 8).value();
  for (std::uint32_t node : {0u, 3u, 7u}) {
    for (auto target : {TcaTarget::kGpu0, TcaTarget::kGpu1, TcaTarget::kHost,
                        TcaTarget::kInternal}) {
      const std::uint64_t addr = l.encode(node, target, 0x1234);
      auto loc = l.decode(addr);
      ASSERT_TRUE(loc.has_value());
      EXPECT_EQ(loc->node, node);
      EXPECT_EQ(loc->target, target);
      EXPECT_EQ(loc->offset, 0x1234u);
    }
  }
}

TEST(TcaLayout, DecodeOutsideWindow) {
  auto l = TcaLayout::create(1ull << 40, 1ull << 39, 8).value();
  EXPECT_FALSE(l.decode(0).has_value());
  EXPECT_FALSE(l.decode((1ull << 40) - 1).has_value());
  EXPECT_FALSE(l.decode((1ull << 40) + (1ull << 39)).has_value());
  EXPECT_TRUE(l.decode(1ull << 40).has_value());
}

TEST(TcaLayout, SlicesAreContiguousAndExhaustive) {
  auto l = TcaLayout::create(0, 1ull << 39, 4).value();
  for (std::uint32_t n = 0; n < 4; ++n) {
    auto first = l.decode(l.slice_base(n));
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->node, n);
    EXPECT_EQ(first->target, TcaTarget::kGpu0);
    auto last = l.decode(l.slice_base(n) + l.slice_size() - 1);
    ASSERT_TRUE(last.has_value());
    EXPECT_EQ(last->node, n);
    EXPECT_EQ(last->target, TcaTarget::kInternal);
  }
}

TEST(RoutingTable, MaskedMatchSelectsPort) {
  RoutingTable table;
  // Fig. 5 style: a 32 GB-aligned slice routes East.
  const std::uint64_t slice = 32ull << 30;
  ASSERT_TRUE(table.add({.mask = ~(slice - 1),
                         .lower = 2 * slice,
                         .upper = 2 * slice,
                         .port = PortId::kEast})
                  .is_ok());
  EXPECT_EQ(table.lookup(2 * slice), PortId::kEast);
  EXPECT_EQ(table.lookup(2 * slice + 12345), PortId::kEast);
  EXPECT_EQ(table.lookup(3 * slice - 1), PortId::kEast);
  EXPECT_FALSE(table.lookup(3 * slice).has_value());
  EXPECT_FALSE(table.lookup(0).has_value());
}

TEST(RoutingTable, FirstMatchWins) {
  RoutingTable table;
  ASSERT_TRUE(
      table.add({.mask = ~0xfffull, .lower = 0x1000, .upper = 0x1000,
                 .port = PortId::kEast})
          .is_ok());
  ASSERT_TRUE(
      table.add({.mask = 0, .lower = 0, .upper = 0, .port = PortId::kWest})
          .is_ok());  // catch-all
  EXPECT_EQ(table.lookup(0x1800), PortId::kEast);
  EXPECT_EQ(table.lookup(0x9999), PortId::kWest);
}

TEST(RoutingTable, RangeBounds) {
  RoutingTable table;
  ASSERT_TRUE(table.add({.mask = ~0ull, .lower = 100, .upper = 200,
                         .port = PortId::kSouth})
                  .is_ok());
  EXPECT_FALSE(table.lookup(99).has_value());
  EXPECT_EQ(table.lookup(100), PortId::kSouth);
  EXPECT_EQ(table.lookup(200), PortId::kSouth);
  EXPECT_FALSE(table.lookup(201).has_value());
}

TEST(RoutingTable, RejectsInvalidAndOverflow) {
  RoutingTable table;
  EXPECT_FALSE(table.add({.mask = ~0ull, .lower = 5, .upper = 1,
                          .port = PortId::kEast})
                   .is_ok());
  for (std::size_t i = 0; i < RoutingTable::kCapacity; ++i) {
    ASSERT_TRUE(table
                    .add({.mask = ~0ull, .lower = i * 10, .upper = i * 10 + 5,
                          .port = PortId::kEast})
                    .is_ok());
  }
  EXPECT_FALSE(table.add({.mask = ~0ull, .lower = 0, .upper = 0,
                          .port = PortId::kWest})
                   .is_ok());
}

TEST(Descriptor, SerializeDeserializeRoundTrip) {
  DmaDescriptor d{.src = 0x4000'1234'5678ull,
                  .dst = 0x7fff'0000'0042ull,
                  .length = 4096,
                  .direction = DmaDirection::kPipelined,
                  .flags = 0xdead};
  std::vector<std::byte> buf(DmaDescriptor::kWireSize);
  d.serialize(buf);
  DmaDescriptor back = DmaDescriptor::deserialize(buf);
  EXPECT_EQ(back.src, d.src);
  EXPECT_EQ(back.dst, d.dst);
  EXPECT_EQ(back.length, d.length);
  EXPECT_EQ(back.direction, d.direction);
  EXPECT_EQ(back.flags, d.flags);
}

TEST(Descriptor, TableSerializationIsDense) {
  std::vector<DmaDescriptor> chain(5);
  for (std::size_t i = 0; i < 5; ++i) {
    chain[i].src = i;
    chain[i].length = static_cast<std::uint32_t>(i * 100);
  }
  auto image = serialize_table(chain);
  EXPECT_EQ(image.size(), 5 * DmaDescriptor::kWireSize);
  for (std::size_t i = 0; i < 5; ++i) {
    auto d = DmaDescriptor::deserialize(
        std::span(image).subspan(i * DmaDescriptor::kWireSize));
    EXPECT_EQ(d.src, i);
    EXPECT_EQ(d.length, i * 100);
  }
}

// --- Register map -------------------------------------------------------------
//
// registers.h static_asserts the four validators over kRegMap. Here each
// validator meets the real map plus one defective row: the validator whose
// static_assert covers that defect must reject the table. Each result is a
// constant expression, so the same table in registers.h fails the build.

using regs::RegAccess;
using regs::RegBank;
using regs::RegSpec;

constexpr std::size_t kRows = std::size(regs::kRegMap);

/// kRegMap with `extra` appended.
constexpr std::array<RegSpec, kRows + 1> with_row(RegSpec extra) {
  std::array<RegSpec, kRows + 1> map{};
  std::copy(std::begin(regs::kRegMap), std::end(regs::kRegMap), map.begin());
  map[kRows] = extra;
  return map;
}

TEST(RegMap, RealMapPassesEveryValidator) {
  constexpr bool aligned = regs::reg_map_aligned(regs::kRegMap);
  constexpr bool in_bounds = regs::reg_map_in_bounds(regs::kRegMap);
  constexpr bool disjoint = regs::reg_map_disjoint(regs::kRegMap);
  constexpr bool outside =
      regs::reg_map_outside_bank_regions(regs::kRegMap);
  EXPECT_TRUE(aligned);
  EXPECT_TRUE(in_bounds);
  EXPECT_TRUE(disjoint);
  EXPECT_TRUE(outside);
}

TEST(RegMap, MisalignedOffsetIsRejected) {
  constexpr auto map =
      with_row({0x004, RegAccess::kRO, RegBank::kGlobal, "kMisaligned"});
  constexpr bool ok = regs::reg_map_aligned(map);
  EXPECT_FALSE(ok);
}

TEST(RegMap, DuplicateOffsetIsRejected) {
  // kNodeId already sits at 0x010.
  constexpr auto map =
      with_row({0x010, RegAccess::kRW, RegBank::kGlobal, "kDuplicate"});
  constexpr bool ok = regs::reg_map_disjoint(map);
  EXPECT_FALSE(ok);
}

TEST(RegMap, RegisterPastTheWindowIsRejected) {
  static_assert(0x10000 >= regs::kWindowBytes);
  constexpr auto map =
      with_row({0x10000, RegAccess::kRO, RegBank::kGlobal, "kOutOfWindow"});
  constexpr bool ok = regs::reg_map_in_bounds(map);
  EXPECT_FALSE(ok);
}

TEST(RegMap, GlobalInsideTheDmaBanksIsRejected) {
  static_assert(0x280 >= regs::kDmaBankBase && 0x280 < regs::kDmaRegionEnd);
  constexpr auto map =
      with_row({0x280, RegAccess::kRW, RegBank::kGlobal, "kShadowed"});
  constexpr bool ok = regs::reg_map_outside_bank_regions(map);
  EXPECT_FALSE(ok);
}

TEST(RegMap, DmaFieldPastTheBankStrideIsRejected) {
  static_assert(0x80 >= regs::kDmaBankStride);
  constexpr auto map =
      with_row({0x80, RegAccess::kRW, RegBank::kDmaChannel, "kOverflow"});
  constexpr bool ok = regs::reg_map_in_bounds(map);
  EXPECT_FALSE(ok);
}

}  // namespace
}  // namespace tca::peach2
