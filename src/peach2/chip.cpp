#include "peach2/chip.h"

#include <cstring>
#include <utility>

#include "common/log.h"
#include "peach2/dmac.h"
#include "peach2/nios.h"
#include "peach2/registers.h"

namespace tca::peach2 {

using calib::kRegAccessPs;
using calib::kRouteLatencyPs;
using calib::kRouteOccupancyPs;

// The register map's decoded regions must agree with the structures they
// front: the address decoder below dispatches by these same bounds.
static_assert(regs::kDmaChannelBanks ==
                  static_cast<std::uint64_t>(calib::kDmaChannels),
              "registers.h DMA bank count must match calib::kDmaChannels");
static_assert(regs::kRouteEntries == RoutingTable::kCapacity,
              "registers.h route-entry count must match "
              "RoutingTable::kCapacity");
static_assert(regs::kLinkStatusBase + 8 * kPortCount <= regs::kNiosEventCount,
              "per-port link-status words must not shadow the NIOS "
              "telemetry registers");

namespace {
constexpr std::size_t idx(PortId port) { return static_cast<std::size_t>(port); }
}  // namespace

Peach2Chip::Peach2Chip(sim::Scheduler& sched, const Peach2Config& config)
    : sched_(sched),
      cfg_(config),
      internal_ram_(calib::kInternalRamBytes),
      board_dram_(calib::kBoardDramBytes) {
  for (std::size_t p = 0; p < kPortCount; ++p) {
    egress_[p].space = std::make_unique<sim::Trigger>(sched_);
    ingress_[p].pending = std::make_unique<sim::Trigger>(sched_);
  }
  for (int ch = 0; ch < calib::kDmaChannels; ++ch) {
    dmac_channels_[static_cast<std::size_t>(ch)] =
        std::make_unique<DmaController>(sched_, *this, ch);
  }
  nios_ = std::make_unique<NiosController>(sched_, *this);
  // Engines start after all state exists.
  for (std::size_t p = 0; p < kPortCount; ++p) {
    ingress_[p].engine = forwarding_engine(static_cast<PortId>(p));
  }
}

Peach2Chip::~Peach2Chip() = default;

void Peach2Chip::attach_port(PortId port, pcie::LinkPort& link) {
  TCA_ASSERT(port != PortId::kInternal);
  const std::size_t p = idx(port);
  TCA_ASSERT(ports_[p] == nullptr && "port already attached");
  ports_[p] = &link;
  egress_[p].port = &link;
  ingress_[p].link = &link;
  link.set_sink(this);
  link.set_tx_ready([this, port] { pump_egress(port); });
  link.set_link_state_callback([this, port](bool up) {
    nios_->on_link_change(port, up);
    if (up) {
      pump_egress(port);  // resume traffic held during the outage
    } else {
      // Wake drain waiters so they observe the dead link and stop gating
      // chain completion on bytes the replay buffer is holding.
      egress_[static_cast<std::size_t>(port)].space->pulse();
    }
  });
  link.set_replay_threshold_callback(
      [this] { raise_error(regs::kErrReplayThreshold); });
  nios_->on_port_attached(port);  // cabled and trained
}

void Peach2Chip::on_tlp(pcie::TlpPtr tlp, pcie::LinkPort& port) {
  for (std::size_t p = 0; p < kPortCount; ++p) {
    if (ports_[p] == &port) {
      ingress_[p].queue.push_back(std::move(tlp));
      ingress_[p].pending->pulse();
      return;
    }
  }
  TCA_ASSERT(false && "TLP from unknown port");
}

std::optional<PortId> Peach2Chip::decide(std::uint64_t addr) const {
  const auto loc = cfg_.layout.decode(addr);
  if (loc.has_value() && loc->node == cfg_.node_id) {
    return loc->target == TcaTarget::kInternal ? PortId::kInternal
                                               : PortId::kNorth;
  }
  if (!loc.has_value()) {
    // Local bus address (host memory, GPU BARs): lives behind the host port.
    return PortId::kNorth;
  }
  return routing_.lookup(addr);
}

std::optional<std::uint64_t> Peach2Chip::convert_to_local(
    const TcaLocation& loc) const {
  switch (loc.target) {
    case TcaTarget::kGpu0: return cfg_.local_gpu0_base + loc.offset;
    case TcaTarget::kGpu1: return cfg_.local_gpu1_base + loc.offset;
    case TcaTarget::kHost: return cfg_.local_host_base + loc.offset;
    case TcaTarget::kInternal: return std::nullopt;  // consumed, not converted
  }
  return std::nullopt;
}

sim::Task<> Peach2Chip::forwarding_engine(PortId in_port) {
  Ingress& in = ingress_[idx(in_port)];
  for (;;) {
    while (in.queue.empty()) co_await in.pending->wait();
    pcie::TlpPtr tlp = std::move(in.queue.front());
    in.queue.pop_front();
    const std::uint64_t wire = tlp->wire_bytes();
    // Store-and-forward pipeline occupancy: one TLP per kRouteOccupancyPs.
    co_await sim::Delay(sched_, kRouteOccupancyPs);

    // DMAC read completions terminate here.
    if (tlp->type == pcie::TlpType::kCompletion) {
      in.link->release_rx(wire);
      if (tlp->requester == cfg_.device_id) {
        dmac(tlp->tag / 64).on_read_completion(std::move(tlp));
      } else {
        ++dropped_;
      }
      continue;
    }

    // Register window (BAR0): host-side control path.
    if (in_port == PortId::kNorth && tlp->address >= cfg_.reg_base &&
        tlp->address < cfg_.reg_base + regs::kWindowBytes) {
      in.link->release_rx(wire);
      handle_register_tlp(std::move(tlp));
      continue;
    }

    const auto loc = cfg_.layout.decode(tlp->address);

    // PEARL is put-only between nodes: a read that did not come from the
    // local host is rejected ("PEACH2 supports only RDMA put protocol").
    if (tlp->type == pcie::TlpType::kMemRead &&
        (in_port != PortId::kNorth ||
         (loc.has_value() && loc->node != cfg_.node_id))) {
      ++dropped_;
      in.link->release_rx(wire);
      continue;
    }

    if (loc.has_value() && loc->node == cfg_.node_id &&
        loc->target == TcaTarget::kInternal) {
      in.link->release_rx(wire);
      handle_internal_tlp(std::move(tlp));
      continue;
    }

    PortId out;
    if (loc.has_value() && loc->node == cfg_.node_id) {
      // Final hop: Port-N address conversion into the local bus space. An
      // ack request rides along to the memory endpoint, which calls back
      // on_write_commit() when the payload actually lands — that callback
      // (not an estimate made here) times the PEARL delivery notification,
      // so the ack can never outrun its data through RC/device queues.
      const auto local = convert_to_local(*loc);
      TCA_ASSERT(local.has_value());
      if (tlp->ack_address != 0) tlp->commit_notifier = this;
      tlp->address = *local;
      out = PortId::kNorth;
    } else {
      const auto decision = decide(tlp->address);
      if (!decision.has_value() || *decision == PortId::kInternal ||
          ports_[idx(*decision)] == nullptr) {
        ++dropped_;
        ++unroutable_;
        raise_error(regs::kErrUnroutable);
        Log::write(LogLevel::kWarn, sched_.now(), "peach2",
                   "unroutable TLP dropped");
        in.link->release_rx(wire);
        continue;
      }
      out = *decision;
    }

    while (!egress_has_room(out, wire)) {
      co_await egress_[idx(out)].space->wait();
    }
    admit_egress(out, std::move(tlp));
    in.link->release_rx(wire);
    ++forwarded_;
    ++port_forwards_[idx(out)];
  }
}

bool Peach2Chip::egress_has_room(PortId out, std::uint64_t wire) const {
  return egress_[idx(out)].reserved_bytes + wire <= cfg_.egress_queue_bytes;
}

void Peach2Chip::admit_egress(PortId out, pcie::TlpPtr tlp) {
  Egress& eg = egress_[idx(out)];
  const std::uint64_t wire = tlp->wire_bytes();
  TCA_ASSERT(egress_has_room(out, wire));
  eg.reserved_bytes += wire;
  // Remaining pipeline latency before the TLP reaches the egress FIFO. The
  // generation captured here detects a failover flushing this port while
  // the TLP is mid-pipeline: arriving under a stale generation, it joins
  // the abandoned traffic rather than outliving the flush as a zombie.
  const std::uint32_t gen = eg.generation;
  auto arrive = [this, out, gen, t = std::move(tlp)]() mutable {
    Egress& dst = egress_[idx(out)];
    if (dst.generation != gen) {
      dst.reserved_bytes -= t->wire_bytes();
      ++abandoned_;
      dst.space->pulse();
      return;
    }
    dst.queue.push_back(std::move(t));
    pump_egress(out);
  };
  sched_.schedule_after(kRouteLatencyPs - kRouteOccupancyPs,
                        std::move(arrive));
}

sim::Task<> Peach2Chip::enqueue_egress(PortId out, pcie::TlpPtr tlp) {
  Egress& eg = egress_[idx(out)];
  const std::uint64_t wire = tlp->wire_bytes();
  while (!egress_has_room(out, wire)) co_await eg.space->wait();
  admit_egress(out, std::move(tlp));
}

void Peach2Chip::pump_egress(PortId out) {
  Egress& eg = egress_[idx(out)];
  TCA_ASSERT(eg.port != nullptr);
  while (!eg.queue.empty() && eg.port->can_send(*eg.queue.front())) {
    const std::uint64_t wire = eg.queue.front()->wire_bytes();
    eg.port->send(std::move(eg.queue.front()));
    eg.queue.pop_front();
    TCA_ASSERT(eg.reserved_bytes >= wire);
    eg.reserved_bytes -= wire;
  }
  eg.space->pulse();
}

std::optional<PortId> Peach2Chip::egress_port_for(std::uint64_t addr) const {
  const auto loc = cfg_.layout.decode(addr);
  if (!loc.has_value()) return PortId::kNorth;  // local bus address
  if (loc->node == cfg_.node_id) {
    if (loc->target == TcaTarget::kInternal) return std::nullopt;
    return PortId::kNorth;
  }
  const auto decision = routing_.lookup(addr);
  if (!decision.has_value() || *decision == PortId::kInternal ||
      ports_[idx(*decision)] == nullptr) {
    return std::nullopt;
  }
  return decision;
}

sim::Task<> Peach2Chip::inject(pcie::TlpPtr tlp, const bool* aborted) {
  const auto loc = cfg_.layout.decode(tlp->address);
  if (loc.has_value() && loc->node == cfg_.node_id &&
      loc->target == TcaTarget::kInternal) {
    // DMAC loopback into own internal region: no wire involved.
    handle_internal_tlp(std::move(tlp));
    co_return;
  }
  const auto out = egress_port_for(tlp->address);
  if (!out.has_value()) {
    ++dropped_;
    ++unroutable_;
    raise_error(regs::kErrUnroutable);
    co_return;
  }
  if (loc.has_value() && loc->node == cfg_.node_id) {
    const auto local = convert_to_local(*loc);
    TCA_ASSERT(local.has_value());
    tlp->address = *local;
    tlp->ack_address = 0;  // local delivery needs no notification
  }
  // The DMA engine sits at the egress stage: its TLPs do not traverse the
  // ingress store-and-forward pipeline, they enter the egress FIFO directly
  // (still subject to its backpressure).
  Egress& eg = egress_[idx(*out)];
  const std::uint64_t wire = tlp->wire_bytes();
  while (!egress_has_room(*out, wire)) {
    if (aborted != nullptr && *aborted) co_return;  // chain abort: give up
    co_await eg.space->wait();
  }
  eg.reserved_bytes += wire;
  eg.queue.push_back(std::move(tlp));
  pump_egress(*out);
  ++forwarded_;
  ++port_forwards_[idx(*out)];
}

sim::Task<> Peach2Chip::drain_egress(PortId out, const bool* aborted) {
  // "Left the chip" = egress FIFO empty AND the link serializer idle. The
  // link's tx_ready callback is pump_egress, which pulses the space trigger
  // on every wire completion, so this loop wakes exactly when state changes.
  Egress& eg = egress_[idx(out)];
  while (eg.reserved_bytes > 0 || !eg.port->tx_idle()) {
    if (aborted != nullptr && *aborted) co_return;
    // A dead link cannot drain: its bytes sit in the replay buffer until
    // retrain. Chain completion must not hang on them — after a ring
    // failover the retried data takes the other direction, and the held
    // bytes retransmit whenever the cable returns.
    if (!eg.port->link_up()) co_return;
    co_await eg.space->wait();
  }
}

void Peach2Chip::pulse_egress_waiters() {
  for (std::size_t p = 0; p < kPortCount; ++p) egress_[p].space->pulse();
}

void Peach2Chip::abandon_egress(PortId port) {
  Egress& eg = egress_[idx(port)];
  ++eg.generation;  // mid-pipeline TLPs discard themselves on arrival
  abandoned_ += eg.queue.size();
  for (const pcie::TlpPtr& t : eg.queue) {
    TCA_ASSERT(eg.reserved_bytes >= t->wire_bytes());
    eg.reserved_bytes -= t->wire_bytes();
  }
  eg.queue.clear();
  // Freed space may unblock enqueuers, and drain waiters must re-evaluate:
  // with the queue empty their chains stop gating on bytes that will never
  // transmit (the missing remote acks make the watchdog retry them).
  eg.space->pulse();
}

// tca-protocol: acks-on-commit
void Peach2Chip::on_write_commit(std::uint64_t ack_address, std::uint8_t tag) {
  // The destination memory endpoint confirmed a delivered write has
  // committed: send the PEARL delivery notification back to the source
  // chip's mailbox over the fabric.
  ++acks_sent_;
  sim::spawn(inject(pcie::Tlp::vendor_msg(ack_address, cfg_.device_id, tag)));
}

void Peach2Chip::raise_error(std::uint64_t bits) {
  err_status_ |= bits;
  const std::uint64_t unmasked = bits & ~err_mask_;
  if (unmasked != 0 && error_handler_) {
    ++error_irqs_;
    error_handler_(unmasked);
  }
}

void Peach2Chip::handle_internal_tlp(pcie::TlpPtr tlp) {
  const auto loc = cfg_.layout.decode(tlp->address);
  TCA_ASSERT(loc.has_value() && loc->target == TcaTarget::kInternal);
  switch (tlp->type) {
    case pcie::TlpType::kVendorMsg:
      // PEARL delivery notification lands in the mailbox page; the tag
      // window identifies the owning DMA channel.
      ++mailbox_count_;
      dmac(tlp->tag / 64).on_delivery_ack(tlp->tag);
      break;
    case pcie::TlpType::kMemWrite: {
      if (loc->offset < kInternalRamOffset ||
          loc->offset - kInternalRamOffset + tlp->payload.size() >
              internal_ram_.size()) {
        ++dropped_;
        break;
      }
      internal_ram_.write(loc->offset - kInternalRamOffset, tlp->payload);
      break;
    }
    case pcie::TlpType::kMemRead: {
      // Local host reading internal RAM (driver diagnostics).
      if (loc->offset < kInternalRamOffset ||
          loc->offset - kInternalRamOffset + tlp->length >
              internal_ram_.size()) {
        ++dropped_;
        break;
      }
      const std::uint64_t base = loc->offset - kInternalRamOffset;
      sched_.schedule_after(kRegAccessPs, [this, req = std::move(tlp), base] {
        std::uint32_t remaining = req->length;
        while (remaining > 0) {
          const std::uint32_t chunk =
              std::min(remaining, calib::kMaxPayloadBytes);
          pcie::TlpPtr cpl = pcie::Tlp::completion(*req, chunk, remaining);
          internal_ram_.read(base + (req->length - remaining), cpl->payload);
          sim::spawn(enqueue_egress(PortId::kNorth, std::move(cpl)));
          remaining -= chunk;
        }
      });
      break;
    }
    case pcie::TlpType::kCompletion:
      ++dropped_;
      break;
  }
}

void Peach2Chip::handle_register_tlp(pcie::TlpPtr tlp) {
  const std::uint64_t offset = tlp->address - cfg_.reg_base;
  if (tlp->type == pcie::TlpType::kMemWrite) {
    TCA_ASSERT(tlp->payload.size() == 8 && "registers are 64-bit");
    std::uint64_t value = 0;
    std::memcpy(&value, tlp->payload.data(), 8);
    sched_.schedule_after(kRegAccessPs, [this, offset, value] {
      write_register(offset, value);
    });
    return;
  }
  if (tlp->type == pcie::TlpType::kMemRead) {
    TCA_ASSERT(tlp->length == 8 && "registers are 64-bit");
    sched_.schedule_after(kRegAccessPs, [this, req = std::move(tlp), offset] {
      const std::uint64_t value = read_register(offset);
      pcie::TlpPtr cpl = pcie::Tlp::completion(*req, 8, req->length);
      std::memcpy(cpl->payload.data(), &value, 8);
      sim::spawn(enqueue_egress(PortId::kNorth, std::move(cpl)));
    });
    return;
  }
  ++dropped_;
}

std::uint64_t Peach2Chip::read_register(std::uint64_t offset) const {
  namespace r = regs;
  if (offset >= r::kRouteBase &&
      offset < r::kRouteBase + RoutingTable::kCapacity * r::kRouteStride) {
    const std::size_t entry = (offset - r::kRouteBase) / r::kRouteStride;
    const std::uint64_t field = (offset - r::kRouteBase) % r::kRouteStride;
    if (entry >= routing_.size()) return 0;
    const RouteEntry& e = routing_.entry(entry);
    switch (field) {
      case r::kRouteMask: return e.mask;
      case r::kRouteLower: return e.lower;
      case r::kRouteUpper: return e.upper;
      case r::kRoutePort: return static_cast<std::uint64_t>(e.port);
      default: return 0;
    }
  }
  if (offset >= r::kLinkStatusBase &&
      offset < r::kLinkStatusBase + 8 * kPortCount) {
    const std::size_t p = (offset - r::kLinkStatusBase) / 8;
    return port_operational(static_cast<PortId>(p)) ? r::kLinkUp
                                                    : r::kLinkDown;
  }
  if (offset >= r::kNiosEventCount && offset <= r::kNiosLastEvent) {
    return nios_->read_register(offset);
  }
  if (offset >= r::kDmaBankBase &&
      offset < r::kDmaBankBase + calib::kDmaChannels * r::kDmaBankStride) {
    const auto ch = static_cast<int>((offset - r::kDmaBankBase) /
                                     r::kDmaBankStride);
    const std::uint64_t field = (offset - r::kDmaBankBase) % r::kDmaBankStride;
    const DmaController& d = *dmac_channels_[static_cast<std::size_t>(ch)];
    switch (field) {
      case r::kDmaBankStatus: return d.status();
      case r::kDmaBankWriteback: return d.writeback_addr();
      case r::kDmaBankErrInfo: return d.error_info();
      default: return 0;  // write-only / unimplemented bank fields
    }
  }
  switch (offset) {
    case r::kChipId: return r::kChipIdValue;
    case r::kLogicVersion: return r::kLogicVersionValue;
    case r::kNodeId: return cfg_.node_id;
    case r::kMailboxCount: return mailbox_count_;
    case r::kErrStatus: return err_status_;
    case r::kErrMask: return err_mask_;
    case r::kConvWindowBase: return cfg_.layout.window_base;
    case r::kConvWindowSize: return cfg_.layout.window_size;
    case r::kConvNodeCount: return cfg_.layout.node_count;
    case r::kConvLocalGpu0: return cfg_.local_gpu0_base;
    case r::kConvLocalGpu1: return cfg_.local_gpu1_base;
    case r::kConvLocalHost: return cfg_.local_host_base;
    default: return 0;
  }
}

void Peach2Chip::write_register(std::uint64_t offset, std::uint64_t value) {
  namespace r = regs;
  if (offset >= r::kRouteBase &&
      offset < r::kRouteBase + RoutingTable::kCapacity * r::kRouteStride) {
    const std::size_t entry = (offset - r::kRouteBase) / r::kRouteStride;
    const std::uint64_t field = (offset - r::kRouteBase) % r::kRouteStride;
    // A port value naming no PortId would index past the port arrays when
    // the entry matches; ignore it, as other invalid writes are, before
    // the entry is touched.
    if (field == r::kRoutePort &&
        value > static_cast<std::uint64_t>(PortId::kInternal)) {
      return;
    }
    RouteEntry& e = routing_.entry_mut(entry);
    switch (field) {
      case r::kRouteMask: e.mask = value; break;
      case r::kRouteLower: e.lower = value; break;
      case r::kRouteUpper: e.upper = value; break;
      case r::kRoutePort: e.port = static_cast<PortId>(value); break;
      default: break;
    }
    return;
  }
  if (offset == r::kNiosCmd) {
    nios_->write_register(offset, value);
    return;
  }
  if (offset >= r::kDmaBankBase &&
      offset < r::kDmaBankBase + calib::kDmaChannels * r::kDmaBankStride) {
    const auto ch = static_cast<int>((offset - r::kDmaBankBase) /
                                     r::kDmaBankStride);
    const std::uint64_t field = (offset - r::kDmaBankBase) % r::kDmaBankStride;
    DmaController& d = *dmac_channels_[static_cast<std::size_t>(ch)];
    switch (field) {
      case r::kDmaBankTableAddr: d.set_table_addr(value); break;
      case r::kDmaBankCount:
        d.set_count(static_cast<std::uint32_t>(value));
        break;
      case r::kDmaBankDoorbell:
        if (value != 0) d.doorbell();
        break;
      case r::kDmaBankImmSrc: d.set_imm_src(value); break;
      case r::kDmaBankImmDst: d.set_imm_dst(value); break;
      case r::kDmaBankImmLen: d.set_imm_len(value); break;
      case r::kDmaBankImmKick:
        if (value != 0) d.kick_immediate();
        break;
      case r::kDmaBankWriteback: d.set_writeback_addr(value); break;
      case r::kDmaBankIntAck: d.ack_interrupt(); break;
      default: break;
    }
    return;
  }
  switch (offset) {
    case r::kNodeId:
      // The internal block (every DMA's ack address) is encoded from the
      // node id, so an id outside the conversion window is ignored.
      if (value < cfg_.layout.node_count) {
        cfg_.node_id = static_cast<std::uint32_t>(value);
      }
      break;
    case r::kErrMask: err_mask_ = value; break;
    case r::kErrAck: err_status_ &= ~value; break;  // write-1-to-clear
    case r::kConvWindowBase:
    case r::kConvWindowSize:
    case r::kConvNodeCount: {
      // Decode divides by the slice size, so a conversion write applies
      // only when the window it leaves is one TcaLayout::create accepts
      // and still holds the chip's node; otherwise it is ignored, as other
      // invalid writes are.
      TcaLayout next = cfg_.layout;
      if (offset == r::kConvWindowBase) next.window_base = value;
      if (offset == r::kConvWindowSize) next.window_size = value;
      if (offset == r::kConvNodeCount) {
        if (value > calib::kMaxFabricNodes) break;  // before it is narrowed
        next.node_count = static_cast<std::uint32_t>(value);
      }
      if (auto valid = TcaLayout::create(next.window_base, next.window_size,
                                         next.node_count);
          valid.is_ok() && cfg_.node_id < valid.value().node_count) {
        cfg_.layout = valid.value();
      }
      break;
    }
    case r::kConvLocalGpu0: cfg_.local_gpu0_base = value; break;
    case r::kConvLocalGpu1: cfg_.local_gpu1_base = value; break;
    case r::kConvLocalHost: cfg_.local_host_base = value; break;
    default: break;  // writes to RO/unknown registers are ignored
  }
}

}  // namespace tca::peach2
