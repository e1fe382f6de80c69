// Direct Peach2Chip unit tests: a bare chip on test links (no node, no
// fabric builder), exercising the forwarding engine, register file, address
// conversion, internal region, and the put-only policy per port.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/log.h"
#include "peach2/chip.h"
#include "peach2/dmac.h"
#include "peach2/nios.h"
#include "peach2/registers.h"

namespace tca::peach2 {
namespace {

namespace r = regs;
using units::ns;
using units::us;

/// Records whatever comes out of a chip port.
class PortProbe : public pcie::TlpSink {
 public:
  void on_tlp(pcie::TlpPtr tlp, pcie::LinkPort& port) override {
    port.release_rx(tlp->wire_bytes());
    received.push_back(std::move(tlp));
  }
  std::vector<pcie::TlpPtr> received;
};

/// A chip with every physical port on a probe link.
struct ChipRig {
  explicit ChipRig(sim::Scheduler& sched, std::uint32_t node_id = 0,
                   std::uint64_t egress_queue_bytes = 1024)
      : layout(TcaLayout::create(1ull << 40, 1ull << 39, 4).value()) {
    Peach2Config cfg{
        .device_id = 42,
        .node_id = node_id,
        .layout = layout,
        .reg_base = 0x30'0000'0000ull,
        .local_gpu0_base = 0x20'0000'0000ull,
        .local_gpu1_base = 0x22'0000'0000ull,
        .local_host_base = 0x0,
        .egress_queue_bytes = egress_queue_bytes,
    };
    chip = std::make_unique<Peach2Chip>(sched, cfg);
    for (std::size_t p = 0; p < kPortCount; ++p) {
      links[p] = std::make_unique<pcie::PcieLink>(
          sched, pcie::LinkConfig{.gen = 2, .lanes = 8});
      chip->attach_port(static_cast<PortId>(p), links[p]->end_a());
      links[p]->end_b().set_sink(&probes[p]);
    }
  }

  pcie::LinkPort& far_end(PortId port) {
    return links[static_cast<std::size_t>(port)]->end_b();
  }
  PortProbe& probe(PortId port) {
    return probes[static_cast<std::size_t>(port)];
  }

  TcaLayout layout;
  std::unique_ptr<Peach2Chip> chip;
  std::array<std::unique_ptr<pcie::PcieLink>, kPortCount> links;
  std::array<PortProbe, kPortCount> probes;
};

std::vector<std::byte> bytes8(std::uint64_t v) {
  std::vector<std::byte> out(8);
  std::memcpy(out.data(), &v, 8);
  return out;
}

TEST(Chip, OwnSliceConvertsAndExitsNorth) {
  sim::Scheduler sched;
  ChipRig rig(sched, /*node_id=*/1);

  // A write for node 1's host block arrives from East; it must leave North
  // with the address converted to the local bus space.
  const std::uint64_t global =
      rig.layout.encode(1, TcaTarget::kHost, 0x1234);
  rig.far_end(PortId::kEast).send(pcie::Tlp::mem_write(global, bytes8(7)));
  sched.run();

  ASSERT_EQ(rig.probe(PortId::kNorth).received.size(), 1u);
  EXPECT_EQ(rig.probe(PortId::kNorth).received[0]->address, 0x1234u);
  EXPECT_EQ(rig.chip->forwarded_tlps(), 1u);
}

TEST(Chip, GpuBlocksConvertToBarAddresses) {
  sim::Scheduler sched;
  ChipRig rig(sched, 0);
  rig.far_end(PortId::kWest).send(pcie::Tlp::mem_write(
      rig.layout.encode(0, TcaTarget::kGpu1, 0x40), bytes8(1)));
  sched.run();
  ASSERT_EQ(rig.probe(PortId::kNorth).received.size(), 1u);
  EXPECT_EQ(rig.probe(PortId::kNorth).received[0]->address,
            0x22'0000'0040ull);
}

TEST(Chip, ForeignSliceFollowsRoutingTable) {
  sim::Scheduler sched;
  ChipRig rig(sched, 0);
  const std::uint64_t slice = rig.layout.slice_size();
  ASSERT_TRUE(rig.chip->routing()
                  .add({.mask = ~(slice - 1),
                        .lower = rig.layout.slice_base(2),
                        .upper = rig.layout.slice_base(2),
                        .port = PortId::kSouth})
                  .is_ok());

  rig.far_end(PortId::kNorth)
      .send(pcie::Tlp::mem_write(rig.layout.encode(2, TcaTarget::kHost, 0),
                                 bytes8(2)));
  sched.run();
  EXPECT_EQ(rig.probe(PortId::kSouth).received.size(), 1u);
  EXPECT_TRUE(rig.probe(PortId::kNorth).received.empty());
}

// A route-port write that names no PortId would send matching traffic
// through an index past the chip's port arrays. It is ignored, like other
// invalid register writes: the entry keeps its port, the table does not
// grow, and a copy to the routed slice still arrives.
TEST(Chip, RoutePortWriteNamingNoPortIsIgnored) {
  sim::Scheduler sched;
  ChipRig rig(sched, 0);
  const std::uint64_t slice = rig.layout.slice_size();
  ASSERT_TRUE(rig.chip->routing()
                  .add({.mask = ~(slice - 1),
                        .lower = rig.layout.slice_base(1),
                        .upper = rig.layout.slice_base(1),
                        .port = PortId::kEast})
                  .is_ok());
  auto port_reg = [](std::uint64_t entry) {
    return r::kRouteBase + entry * r::kRouteStride + r::kRoutePort;
  };

  rig.chip->write_register(port_reg(0), 9);
  EXPECT_EQ(rig.chip->read_register(port_reg(0)),
            static_cast<std::uint64_t>(PortId::kEast));
  rig.chip->write_register(port_reg(5), 9);
  EXPECT_EQ(rig.chip->routing().size(), 1u);

  const std::vector<std::byte> data(64, std::byte{0x3C});
  rig.far_end(PortId::kNorth)
      .send(pcie::Tlp::mem_write(rig.layout.encode(1, TcaTarget::kHost, 0),
                                 data));
  sched.run();
  ASSERT_EQ(rig.probe(PortId::kEast).received.size(), 1u);
  const auto& payload = rig.probe(PortId::kEast).received[0]->payload;
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), data.begin(),
                         data.end()));
  EXPECT_EQ(rig.chip->dropped_tlps(), 0u);
}

// A conversion write that would leave an invalid window is ignored: a node
// count of 0 makes the slice size 0, and decode divides by it. After each
// such write the register reads back unchanged, and a write into the
// chip's own slice is still converted and still leaves by the North port.
TEST(Chip, ConversionWriteLeavingAnInvalidWindowIsIgnored) {
  sim::Scheduler sched;
  ChipRig rig(sched, /*node_id=*/1);
  const struct {
    std::uint64_t reg;
    std::uint64_t value;
  } invalid[] = {
      {r::kConvNodeCount, 0},
      {r::kConvNodeCount, 3},
      {r::kConvWindowSize, 0},
      {r::kConvWindowBase, rig.layout.window_base + 4096},  // unaligned
  };
  auto& north = rig.probe(PortId::kNorth).received;
  for (const auto& w : invalid) {
    const std::uint64_t before = rig.chip->read_register(w.reg);
    rig.chip->write_register(w.reg, w.value);
    EXPECT_EQ(rig.chip->read_register(w.reg), before) << "register " << w.reg;

    const std::uint64_t offset = 0x80 * (north.size() + 1);
    rig.far_end(PortId::kEast)
        .send(pcie::Tlp::mem_write(
            rig.layout.encode(1, TcaTarget::kHost, offset), bytes8(5)));
    sched.run();
    ASSERT_FALSE(north.empty());
    EXPECT_EQ(north.back()->address, offset);
  }
  EXPECT_EQ(north.size(), std::size(invalid));
}

TEST(Chip, WriteLeavingTheOwnNodeOutsideTheWindowIsIgnored) {
  // Node 1 of a 4-node window: a window of one node, or a node id of 5,
  // would leave the chip's internal block (every DMA's ack address)
  // unencodable.
  sim::Scheduler sched;
  ChipRig rig(sched, /*node_id=*/1);
  const std::uint64_t internal = rig.chip->internal_block_base();

  rig.chip->write_register(r::kConvNodeCount, 1);
  EXPECT_EQ(rig.chip->read_register(r::kConvNodeCount), 4u);
  rig.chip->write_register(r::kNodeId, 5);
  EXPECT_EQ(rig.chip->read_register(r::kNodeId), 1u);
  EXPECT_EQ(rig.chip->internal_block_base(), internal);

  // Writes that keep the node inside the window still apply.
  rig.chip->write_register(r::kConvNodeCount, 2);
  EXPECT_EQ(rig.chip->read_register(r::kConvNodeCount), 2u);
  rig.chip->write_register(r::kNodeId, 0);
  EXPECT_EQ(rig.chip->read_register(r::kNodeId), 0u);
  EXPECT_EQ(rig.chip->internal_block_base(),
            TcaLayout::create(rig.layout.window_base, rig.layout.window_size, 2)
                .value()
                .encode(0, TcaTarget::kInternal, 0));
}

TEST(Chip, UnroutableForeignSliceDroppedAndCounted) {
  sim::Scheduler sched;
  ChipRig rig(sched, 0);
  rig.far_end(PortId::kNorth)
      .send(pcie::Tlp::mem_write(rig.layout.encode(3, TcaTarget::kHost, 0),
                                 bytes8(3)));
  sched.run();
  EXPECT_EQ(rig.chip->dropped_tlps(), 1u);
  for (std::size_t p = 0; p < kPortCount; ++p) {
    EXPECT_TRUE(rig.probes[p].received.empty());
  }
}

TEST(Chip, PutOnlyRejectsReadsFromFabricPorts) {
  sim::Scheduler sched;
  ChipRig rig(sched, 0);
  // MRd arriving from East targeting the local host: rejected.
  rig.far_end(PortId::kEast).send(pcie::Tlp::mem_read(
      rig.layout.encode(0, TcaTarget::kHost, 0), 64, /*req=*/9, 1));
  // MRd from the host toward a REMOTE node: rejected too.
  rig.far_end(PortId::kNorth).send(pcie::Tlp::mem_read(
      rig.layout.encode(2, TcaTarget::kHost, 0), 64, 9, 2));
  sched.run();
  EXPECT_EQ(rig.chip->dropped_tlps(), 2u);
}

TEST(Chip, LocalReadFromHostPortAllowed) {
  sim::Scheduler sched;
  ChipRig rig(sched, 0);
  // The host reading its own node's internal RAM: permitted (Port N).
  auto data = bytes8(0xABCD);
  rig.chip->internal_ram().write(0x100, data);
  rig.far_end(PortId::kNorth)
      .send(pcie::Tlp::mem_read(rig.chip->internal_block_base() +
                                    Peach2Chip::kInternalRamOffset + 0x100,
                                8, /*requester=*/9, 5));
  sched.run();
  ASSERT_EQ(rig.probe(PortId::kNorth).received.size(), 1u);
  const pcie::Tlp& cpl = *rig.probe(PortId::kNorth).received[0];
  EXPECT_EQ(cpl.type, pcie::TlpType::kCompletion);
  EXPECT_TRUE(std::ranges::equal(cpl.payload, data));
  EXPECT_EQ(cpl.tag, 5);
}

TEST(Chip, InternalRamWriteOutOfBoundsDropped) {
  sim::Scheduler sched;
  ChipRig rig(sched, 0);
  const std::uint64_t beyond = rig.chip->internal_block_base() +
                               Peach2Chip::kInternalRamOffset +
                               rig.chip->internal_ram().size();
  rig.far_end(PortId::kNorth).send(pcie::Tlp::mem_write(beyond, bytes8(1)));
  // Also: a write into the mailbox page (offset < kInternalRamOffset).
  rig.far_end(PortId::kNorth)
      .send(pcie::Tlp::mem_write(rig.chip->internal_block_base() + 8,
                                 bytes8(2)));
  sched.run();
  EXPECT_EQ(rig.chip->dropped_tlps(), 2u);
}

TEST(Chip, RegisterFileFullMap) {
  sim::Scheduler sched;
  ChipRig rig(sched, 3);
  auto& chip = *rig.chip;

  EXPECT_EQ(chip.read_register(r::kChipId), r::kChipIdValue);
  EXPECT_EQ(chip.read_register(r::kLogicVersion), r::kLogicVersionValue);
  EXPECT_EQ(chip.read_register(r::kNodeId), 3u);
  chip.write_register(r::kNodeId, 2);
  EXPECT_EQ(chip.read_register(r::kNodeId), 2u);

  // Conversion registers.
  chip.write_register(r::kConvLocalHost, 0x1000);
  EXPECT_EQ(chip.read_register(r::kConvLocalHost), 0x1000u);
  EXPECT_EQ(chip.read_register(r::kConvWindowBase), rig.layout.window_base);
  EXPECT_EQ(chip.read_register(r::kConvNodeCount), 4u);

  // Link status: all four ports attached.
  for (std::size_t p = 0; p < kPortCount; ++p) {
    EXPECT_EQ(chip.read_register(r::kLinkStatusBase + 8 * p), r::kLinkUp);
  }

  // Unknown registers read as zero, writes are ignored.
  // tca-lint: allow(reg-magic-mmio): probing an unmapped offset is the point
  EXPECT_EQ(chip.read_register(0x9998), 0u);
  // tca-lint: allow(reg-magic-mmio): probing an unmapped offset is the point
  chip.write_register(0x9998, 0xdead);
  // tca-lint: allow(reg-magic-mmio): probing an unmapped offset is the point
  EXPECT_EQ(chip.read_register(0x9998), 0u);
}

TEST(Chip, RegisterMlpOverMmioWindow) {
  sim::Scheduler sched;
  ChipRig rig(sched, 0);
  // A register write TLP through the N port updates the file; a read TLP
  // returns a completion with the value.
  rig.far_end(PortId::kNorth)
      .send(pcie::Tlp::mem_write(0x30'0000'0000ull + r::kNodeId, bytes8(2)));
  sched.run();
  EXPECT_EQ(rig.chip->read_register(r::kNodeId), 2u);

  rig.far_end(PortId::kNorth)
      .send(pcie::Tlp::mem_read(0x30'0000'0000ull + r::kNodeId, 8, 9, 3));
  sched.run();
  ASSERT_EQ(rig.probe(PortId::kNorth).received.size(), 1u);
  std::uint64_t value = 0;
  std::memcpy(&value, rig.probe(PortId::kNorth).received[0]->payload.data(),
              8);
  EXPECT_EQ(value, 2u);
}

TEST(Chip, VendorMsgToOwnMailboxCounts) {
  sim::Scheduler sched;
  ChipRig rig(sched, 0);
  rig.far_end(PortId::kEast)
      .send(pcie::Tlp::vendor_msg(rig.chip->internal_block_base(), 8, 33));
  sched.run();
  EXPECT_EQ(rig.chip->mailbox_count(), 1u);
  // Tag 33 belongs to channel 0's ack window; an unexpected ack counts as
  // a channel error (nothing pending).
  EXPECT_EQ(rig.chip->dmac(0).errors(), 1u);
}

TEST(Chip, TagFromTheOtherHalfOfTheWindowCountsAsAnError) {
  // A channel's read tags fill the lower half of its 64-wide tag window and
  // its notification tags the upper half, and each DMAC tag table covers
  // only its own half: a completion carrying a notification tag, or an ack
  // carrying a read tag, is unexpected.
  sim::Scheduler sched;
  ChipRig rig(sched, 0);
  const pcie::TlpPtr read =
      pcie::Tlp::mem_read(0x1000, 8, /*requester=*/42, /*tag=*/40);
  rig.far_end(PortId::kEast).send(pcie::Tlp::completion(*read, 8, 8));
  rig.far_end(PortId::kEast)
      .send(pcie::Tlp::vendor_msg(rig.chip->internal_block_base(), 8, 5));
  sched.run();
  EXPECT_EQ(rig.chip->mailbox_count(), 1u);
  EXPECT_EQ(rig.chip->dmac(0).errors(), 2u);
}

TEST(Chip, ForwardingPreservesOrderWithinAPort) {
  sim::Scheduler sched;
  ChipRig rig(sched, 1);
  for (std::uint32_t i = 0; i < 8; ++i) {
    rig.far_end(PortId::kEast).send(pcie::Tlp::mem_write(
        rig.layout.encode(1, TcaTarget::kHost, i * 0x100), bytes8(i)));
  }
  sched.run();
  ASSERT_EQ(rig.probe(PortId::kNorth).received.size(), 8u);
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(rig.probe(PortId::kNorth).received[i]->address, i * 0x100ull);
  }
}

// A burst routed through the chip's forwarding engine and route pipeline
// leaves, whole, by the egress port its route names, and each TLP is
// counted against that port.
TEST(Chip, RoutedBurstLeavesByItsEgressPortAndIsCounted) {
  sim::Scheduler sched;
  ChipRig rig(sched, 0);
  const std::uint64_t slice = rig.layout.slice_size();
  ASSERT_TRUE(rig.chip->routing()
                  .add({.mask = ~(slice - 1),
                        .lower = rig.layout.slice_base(2),
                        .upper = rig.layout.slice_base(2),
                        .port = PortId::kWest})
                  .is_ok());

  constexpr int kTlps = 64;
  const std::vector<std::byte> data(64, std::byte{0x5A});
  for (int i = 0; i < kTlps; ++i) {
    rig.far_end(PortId::kEast)
        .send(pcie::Tlp::mem_write(
            rig.layout.encode(2, TcaTarget::kHost,
                              static_cast<std::uint64_t>(i) * 64),
            data));
  }
  sched.run();

  EXPECT_EQ(rig.probe(PortId::kWest).received.size(),
            static_cast<std::size_t>(kTlps));
  EXPECT_EQ(rig.chip->port_forwards(PortId::kWest),
            static_cast<std::uint64_t>(kTlps));
}

// The status writeback is a polled-mode driver's only completion edge, so
// an abort must not drop it with the chain's data: here the host port's
// FIFO holds one full TLP, and the 8-byte status write waits behind it.
// The descriptor is latched in the immediate registers and kicked, the way
// the driver submits every reliable put.
TEST(Chip, AbortedChainStillWritesBackItsStatus) {
  sim::Scheduler sched;
  ChipRig rig(sched, /*node_id=*/0, /*egress_queue_bytes=*/280);
  DmaController& dmac = rig.chip->dmac(0);
  constexpr std::uint64_t kStatusWord = 0x1000;
  dmac.set_writeback_addr(kStatusWord);
  dmac.set_imm_src(rig.chip->internal_block_base() +
                   Peach2Chip::kInternalRamOffset);
  dmac.set_imm_dst(rig.layout.encode(0, TcaTarget::kHost, 0x10000));
  dmac.set_imm_len((64u << 10) |
                   (static_cast<std::uint64_t>(DmaDirection::kWrite) << 32));
  dmac.kick_immediate();
  sched.run_for(us(3));
  ASSERT_TRUE(dmac.busy());
  dmac.abort(ErrorCode::kTimedOut);
  sched.run();

  EXPECT_FALSE(dmac.busy());
  const auto& north = rig.probe(PortId::kNorth).received;
  ASSERT_FALSE(north.empty());
  EXPECT_EQ(north.back()->address, kStatusWord);
  EXPECT_EQ(north.back()->payload.size(), 8u);
}

// A log line carries the clock of the simulation that wrote it: after one
// simulation ran to 3 ms, a fresh one logging at t = 0 must say 0 ps.
TEST(Chip, LogLineCarriesItsOwnSimulationsClock) {
  {
    sim::Scheduler earlier;
    earlier.run_until(units::ms(3));
  }
  sim::Scheduler sched;
  ChipRig rig(sched, 0);
  DmaController& dmac = rig.chip->dmac(0);
  dmac.set_stuck(true);
  const LogLevel level = Log::level();
  Log::set_level(LogLevel::kWarn);
  testing::internal::CaptureStderr();
  dmac.kick_immediate();
  const std::string err = testing::internal::GetCapturedStderr();
  Log::set_level(level);
  EXPECT_EQ(err,
            "[        0 ps] WARN  dmac       kick swallowed (engine stuck)\n");
}

TEST(Chip, NiosSeesAttachAndTransitions) {
  sim::Scheduler sched;
  ChipRig rig(sched, 0);
  EXPECT_EQ(rig.chip->nios().event_count(), kPortCount);  // attach events

  rig.links[1]->set_up(false);  // East down
  sched.run_for(NiosController::kServiceDelay + ns(10));
  EXPECT_EQ(rig.chip->nios().event_count(), kPortCount + 1);
  EXPECT_FALSE(rig.chip->nios().link_view(PortId::kEast));
  const std::uint64_t last = rig.chip->read_register(r::kNiosLastEvent);
  EXPECT_EQ(last & 0xff, static_cast<std::uint64_t>(PortId::kEast));
  EXPECT_EQ((last >> 8) & 1, 0u);  // down
}

}  // namespace
}  // namespace tca::peach2
