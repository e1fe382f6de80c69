// PEACH2 register file (BAR0).
//
// The driver controls the chip exclusively through 64-bit MMIO accesses to
// these offsets: routing/conversion setup, DMA descriptor-table address and
// doorbell, interrupt acknowledge, and NIOS-maintained link status. Tests
// may also use the structured accessors directly (the register path and the
// struct path share the same state).
//
// kRegMap at the bottom of this header is the one machine-readable
// statement of the layout: each register's offset, access, bank and span.
// The static_asserts after it check the table on every build that includes
// this header, and tests/peach2_test.cpp (RegMap) feeds the same validators
// a table with each kind of defect.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace tca::peach2::regs {

// -- Identification ----------------------------------------------------------
inline constexpr std::uint64_t kChipId = 0x000;
inline constexpr std::uint64_t kLogicVersion = 0x008;
inline constexpr std::uint64_t kNodeId = 0x010;

/// Value of kChipId: "PEACH2" in ASCII.
inline constexpr std::uint64_t kChipIdValue = 0x0000'3248'4341'4550ull;
/// Value of kLogicVersion: the FPGA logic revision in Table II.
inline constexpr std::uint64_t kLogicVersionValue = 20121112;

// -- DMA controller ----------------------------------------------------------
// The chip carries kDmaChannelBanks independent DMA engines (the production
// PEACH2 board's multi-channel DMAC); each channel has a register bank of
// kDmaBankStride bytes at kDmaBankBase + channel * kDmaBankStride. The bank
// count must match calib::kDmaChannels (static_assert in chip.cpp).
inline constexpr std::uint64_t kDmaBankBase = 0x200;
inline constexpr std::uint64_t kDmaBankStride = 0x80;
inline constexpr std::uint64_t kDmaChannelBanks = 4;

// Offsets within a channel bank:
inline constexpr std::uint64_t kDmaBankTableAddr = 0x00;
inline constexpr std::uint64_t kDmaBankCount = 0x08;
inline constexpr std::uint64_t kDmaBankDoorbell = 0x10;
inline constexpr std::uint64_t kDmaBankStatus = 0x18;
inline constexpr std::uint64_t kDmaBankIntAck = 0x20;
inline constexpr std::uint64_t kDmaBankImmSrc = 0x28;
inline constexpr std::uint64_t kDmaBankImmDst = 0x30;
/// Immediate descriptor length | direction << 32.
inline constexpr std::uint64_t kDmaBankImmLen = 0x38;
inline constexpr std::uint64_t kDmaBankImmKick = 0x40;
inline constexpr std::uint64_t kDmaBankWriteback = 0x48;
/// Per-bank error info: failing descriptor index | error code << 32.
/// Valid while kDmaStatusError is set; cleared by the next doorbell/kick.
inline constexpr std::uint64_t kDmaBankErrInfo = 0x50;

constexpr std::uint64_t dma_bank(int channel, std::uint64_t field) {
  return kDmaBankBase +
         static_cast<std::uint64_t>(channel) * kDmaBankStride + field;
}

/// PEARL delivery notifications (acks) received.
inline constexpr std::uint64_t kMailboxCount = 0x048;

/// kDmaBankStatus bits.
inline constexpr std::uint64_t kDmaStatusBusy = 1ull << 0;
inline constexpr std::uint64_t kDmaStatusDone = 1ull << 1;
inline constexpr std::uint64_t kDmaStatusError = 1ull << 2;

// -- Error reporting (AER-flavored) ------------------------------------------
// A sticky error-status register, a mask register gating the error
// interrupt, and a write-1-to-clear acknowledge. Unmasked bits raising in
// kErrStatus fire the chip's error interrupt toward the driver.
inline constexpr std::uint64_t kErrStatus = 0x0b0;
/// A set bit masks that error's interrupt.
inline constexpr std::uint64_t kErrMask = 0x0b8;
/// Write 1 to a bit to clear it in kErrStatus.
inline constexpr std::uint64_t kErrAck = 0x0c0;

/// kErrStatus bits.
inline constexpr std::uint64_t kErrCompletionTimeout = 1ull << 0;
inline constexpr std::uint64_t kErrUnroutable = 1ull << 1;
inline constexpr std::uint64_t kErrReplayThreshold = 1ull << 2;
inline constexpr std::uint64_t kErrDmaAbort = 1ull << 3;

// -- Address conversion (Section III-E, "only at Port N") --------------------
inline constexpr std::uint64_t kConvWindowBase = 0x080;
inline constexpr std::uint64_t kConvWindowSize = 0x088;
inline constexpr std::uint64_t kConvNodeCount = 0x090;
inline constexpr std::uint64_t kConvLocalGpu0 = 0x098;
inline constexpr std::uint64_t kConvLocalGpu1 = 0x0a0;
inline constexpr std::uint64_t kConvLocalHost = 0x0a8;

// -- Routing table -----------------------------------------------------------
// Entry i occupies 4 consecutive 64-bit registers starting at
// kRouteBase + i*kRouteStride: MASK, LOWER, UPPER, PORT. The entry count
// must match RoutingTable::kCapacity (static_assert in chip.cpp).
inline constexpr std::uint64_t kRouteBase = 0x400;
inline constexpr std::uint64_t kRouteStride = 0x20;
inline constexpr std::uint64_t kRouteEntries = 64;
inline constexpr std::uint64_t kRouteMask = 0x00;
inline constexpr std::uint64_t kRouteLower = 0x08;
inline constexpr std::uint64_t kRouteUpper = 0x10;
/// A PortId; a write naming no PortId is ignored.
inline constexpr std::uint64_t kRoutePort = 0x18;

// -- NIOS management processor ----------------------------------------------
// Link status per port (N/E/W/S/Y-/Z+/Z-), maintained by the management
// firmware. One 64-bit word per physical port (7 in the torus build), at
// kLinkStatusBase + 8 * port.
inline constexpr std::uint64_t kLinkStatusBase = 0xc00;
inline constexpr std::uint64_t kLinkUp = 1;
inline constexpr std::uint64_t kLinkDown = 0;

// Firmware telemetry and the management-command mailbox.
inline constexpr std::uint64_t kNiosEventCount = 0xc40;
/// Firmware uptime in nanoseconds.
inline constexpr std::uint64_t kNiosUptime = 0xc48;
inline constexpr std::uint64_t kNiosCmd = 0xc50;
inline constexpr std::uint64_t kNiosPingCount = 0xc58;
/// Last link event: port | up << 8.
inline constexpr std::uint64_t kNiosLastEvent = 0xc60;

/// Register window size (must fit in the BAR claimed by the node).
inline constexpr std::uint64_t kWindowBytes = 64 << 10;

// -- Register map -------------------------------------------------------------
// One row per register: its offset (absolute, or within its DMA channel
// bank or route-table entry), access and span in bytes.

enum class RegAccess : std::uint8_t { kRO, kRW, kWO };
enum class RegBank : std::uint8_t { kGlobal, kDmaChannel, kRouteEntry };

struct RegSpec {
  std::uint64_t offset;
  RegAccess access;
  RegBank bank;
  const char* name;
  std::uint64_t span = 8;
};

inline constexpr RegSpec kRegMap[] = {
    {kChipId, RegAccess::kRO, RegBank::kGlobal, "kChipId"},
    {kLogicVersion, RegAccess::kRO, RegBank::kGlobal, "kLogicVersion"},
    {kNodeId, RegAccess::kRW, RegBank::kGlobal, "kNodeId"},
    {kMailboxCount, RegAccess::kRO, RegBank::kGlobal, "kMailboxCount"},
    {kConvWindowBase, RegAccess::kRW, RegBank::kGlobal, "kConvWindowBase"},
    {kConvWindowSize, RegAccess::kRW, RegBank::kGlobal, "kConvWindowSize"},
    {kConvNodeCount, RegAccess::kRW, RegBank::kGlobal, "kConvNodeCount"},
    {kConvLocalGpu0, RegAccess::kRW, RegBank::kGlobal, "kConvLocalGpu0"},
    {kConvLocalGpu1, RegAccess::kRW, RegBank::kGlobal, "kConvLocalGpu1"},
    {kConvLocalHost, RegAccess::kRW, RegBank::kGlobal, "kConvLocalHost"},
    {kErrStatus, RegAccess::kRO, RegBank::kGlobal, "kErrStatus"},
    {kErrMask, RegAccess::kRW, RegBank::kGlobal, "kErrMask"},
    {kErrAck, RegAccess::kWO, RegBank::kGlobal, "kErrAck"},
    {kLinkStatusBase, RegAccess::kRO, RegBank::kGlobal, "kLinkStatusBase", 56},
    {kNiosEventCount, RegAccess::kRO, RegBank::kGlobal, "kNiosEventCount"},
    {kNiosUptime, RegAccess::kRO, RegBank::kGlobal, "kNiosUptime"},
    {kNiosCmd, RegAccess::kWO, RegBank::kGlobal, "kNiosCmd"},
    {kNiosPingCount, RegAccess::kRO, RegBank::kGlobal, "kNiosPingCount"},
    {kNiosLastEvent, RegAccess::kRO, RegBank::kGlobal, "kNiosLastEvent"},
    {kDmaBankTableAddr, RegAccess::kRW, RegBank::kDmaChannel,
     "kDmaBankTableAddr"},
    {kDmaBankCount, RegAccess::kRW, RegBank::kDmaChannel, "kDmaBankCount"},
    {kDmaBankDoorbell, RegAccess::kWO, RegBank::kDmaChannel,
     "kDmaBankDoorbell"},
    {kDmaBankStatus, RegAccess::kRO, RegBank::kDmaChannel, "kDmaBankStatus"},
    {kDmaBankIntAck, RegAccess::kWO, RegBank::kDmaChannel, "kDmaBankIntAck"},
    {kDmaBankImmSrc, RegAccess::kRW, RegBank::kDmaChannel, "kDmaBankImmSrc"},
    {kDmaBankImmDst, RegAccess::kRW, RegBank::kDmaChannel, "kDmaBankImmDst"},
    {kDmaBankImmLen, RegAccess::kRW, RegBank::kDmaChannel, "kDmaBankImmLen"},
    {kDmaBankImmKick, RegAccess::kWO, RegBank::kDmaChannel,
     "kDmaBankImmKick"},
    {kDmaBankWriteback, RegAccess::kRW, RegBank::kDmaChannel,
     "kDmaBankWriteback"},
    {kDmaBankErrInfo, RegAccess::kRO, RegBank::kDmaChannel,
     "kDmaBankErrInfo"},
    {kRouteMask, RegAccess::kRW, RegBank::kRouteEntry, "kRouteMask"},
    {kRouteLower, RegAccess::kRW, RegBank::kRouteEntry, "kRouteLower"},
    {kRouteUpper, RegAccess::kRW, RegBank::kRouteEntry, "kRouteUpper"},
    {kRoutePort, RegAccess::kRW, RegBank::kRouteEntry, "kRoutePort"},
};

// Decoded bank regions: DMA banks then route entries, both inside BAR0.
inline constexpr std::uint64_t kDmaRegionEnd =
    kDmaBankBase + kDmaChannelBanks * kDmaBankStride;
inline constexpr std::uint64_t kRouteRegionEnd =
    kRouteBase + kRouteEntries * kRouteStride;

namespace detail {

constexpr std::uint64_t reg_limit(RegBank bank) {
  switch (bank) {
    case RegBank::kGlobal: return kWindowBytes;
    case RegBank::kDmaChannel: return kDmaBankStride;
    case RegBank::kRouteEntry: return kRouteStride;
  }
  return 0;
}

}  // namespace detail

/// All MMIO is 64-bit: every offset and span is a multiple of 8 bytes.
constexpr bool reg_map_aligned(std::span<const RegSpec> map) {
  for (const RegSpec& r : map) {
    if (r.span == 0 || r.span % 8 != 0 || r.offset % 8 != 0) return false;
  }
  return true;
}

/// Globals fit the BAR0 window; bank fields fit their bank stride.
constexpr bool reg_map_in_bounds(std::span<const RegSpec> map) {
  for (const RegSpec& r : map) {
    if (r.offset + r.span > detail::reg_limit(r.bank)) return false;
  }
  return true;
}

/// No two registers of the same bank kind overlap.
constexpr bool reg_map_disjoint(std::span<const RegSpec> map) {
  for (std::size_t i = 0; i < map.size(); ++i) {
    for (std::size_t j = i + 1; j < map.size(); ++j) {
      const RegSpec& a = map[i];
      const RegSpec& b = map[j];
      if (a.bank == b.bank && a.offset < b.offset + b.span &&
          b.offset < a.offset + a.span) {
        return false;
      }
    }
  }
  return true;
}

/// Absolute registers must not fall inside a decoded bank region — the
/// chip's address decoder would shadow them.
constexpr bool reg_map_outside_bank_regions(std::span<const RegSpec> map) {
  for (const RegSpec& r : map) {
    if (r.bank != RegBank::kGlobal) continue;
    const std::uint64_t end = r.offset + r.span;
    if (r.offset < kDmaRegionEnd && end > kDmaBankBase) return false;
    if (r.offset < kRouteRegionEnd && end > kRouteBase) return false;
  }
  return true;
}

static_assert(reg_map_aligned(kRegMap),
              "register offsets/spans must be 8-byte aligned");
static_assert(reg_map_in_bounds(kRegMap),
              "registers must fit their window/bank stride");
static_assert(reg_map_disjoint(kRegMap),
              "register offsets must not overlap within a bank kind");
static_assert(reg_map_outside_bank_regions(kRegMap),
              "absolute registers must not shadow DMA/route bank regions");
static_assert(kDmaRegionEnd <= kRouteBase,
              "DMA channel banks must end at or before the route table");
static_assert(kRouteRegionEnd <= kLinkStatusBase,
              "route table must end at or before the NIOS region");
static_assert(kWindowBytes % 4096 == 0 && kRouteRegionEnd <= kWindowBytes,
              "decoded regions must fit the BAR0 window");

}  // namespace tca::peach2::regs
