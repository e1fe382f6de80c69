#include "peach2/dmac.h"

#include <algorithm>
#include <span>

#include "common/log.h"
#include "common/trace.h"
#include "peach2/chip.h"
#include "peach2/registers.h"

namespace tca::peach2 {

using calib::kDescriptorProcessPs;
using calib::kDescriptorTableFetchPs;
using calib::kDmaReadTags;
using calib::kMaxPayloadBytes;
using calib::kMaxReadRequestBytes;
using calib::kReadDescriptorGapPs;
using calib::kReadIssueIntervalPs;
using calib::kRemoteAckWindow;

namespace {
constexpr std::uint64_t kStatusBusy = 1;
constexpr std::uint64_t kStatusDone = 2;
constexpr std::uint64_t kStatusError = 4;
}  // namespace

DmaController::DmaController(sim::Scheduler& sched, Peach2Chip& chip,
                             int channel)
    : sched_(sched),
      chip_(chip),
      channel_(channel),
      tag_sem_(sched, kDmaReadTags),
      reads_drained_(sched),
      forwards_done_(sched),
      ack_event_(sched) {
  TCA_ASSERT(channel >= 0 && channel < calib::kDmaChannels);
  // Disjoint per-channel tag window (see the constructor comment).
  const auto base = static_cast<std::uint8_t>(channel * 64);
  free_tags_.reserve(kDmaReadTags);
  for (std::uint32_t t = 0; t < kDmaReadTags; ++t) {
    free_tags_.push_back(static_cast<std::uint8_t>(base + t));
  }
  next_ack_tag_ = static_cast<std::uint8_t>(base + 32);
}

void DmaController::arm_chain() {
  ++doorbells_;
  status_ = kStatusBusy;
  aborted_ = false;
  error_info_ = 0;
  current_desc_ = 0;
}

void DmaController::doorbell() {
  if (stuck_) {
    Log::write(LogLevel::kWarn, sched_.now(), "dmac",
               "doorbell swallowed (engine stuck)");
    return;
  }
  if (busy()) {
    Log::write(LogLevel::kWarn, sched_.now(), "dmac",
               "doorbell while busy ignored");
    return;
  }
  if (!fetch_table_ || count_ == 0) {
    status_ = kStatusError;
    return;
  }
  arm_chain();
  chain_task_ = run_chain();
}

void DmaController::kick_immediate() {
  if (stuck_) {
    Log::write(LogLevel::kWarn, sched_.now(), "dmac",
               "kick swallowed (engine stuck)");
    return;
  }
  if (busy()) {
    Log::write(LogLevel::kWarn, sched_.now(), "dmac",
               "immediate kick while busy ignored");
    return;
  }
  if (imm_.length == 0) {
    status_ = kStatusError;
    return;
  }
  arm_chain();
  chain_task_ = run_immediate(imm_);
}

void DmaController::fail_descriptor(ErrorCode code) {
  ++errors_;
  status_ |= kStatusError;
  error_info_ =
      (static_cast<std::uint64_t>(code) << 32) | current_desc_;
}

void DmaController::abort(ErrorCode code) {
  if (!busy() || aborted_) return;
  aborted_ = true;
  ++aborts_;
  fail_descriptor(code);
  chip_.raise_error(regs::kErrDmaAbort);
  // Forget outstanding non-posted requests: cancel their completion timers
  // and hand their tags back. A completion that still arrives later is
  // counted as unexpected (errors_) and otherwise ignored.
  const auto base = static_cast<std::uint8_t>(channel_ * 64);
  for (std::size_t i = 0; i < pending_reads_.size(); ++i) {
    std::optional<PendingRead>& pr = pending_reads_[i];
    if (!pr) continue;
    if (pr->timeout_event != sim::Scheduler::kInvalidEvent) {
      sched_.cancel(pr->timeout_event);
    }
    pr.reset();
    release_tag(static_cast<std::uint8_t>(base + i));
  }
  outstanding_reads_ = 0;
  reads_drained_.pulse();
  // Drop the delivery-notification window: the acks may be stranded behind
  // a dead link and must not gate chain teardown.
  pending_acks_.clear();
  ack_state_.fill(AckState::kNone);
  ack_event_.pulse();
  forwards_done_.pulse();
  // Wake engine coroutines parked on egress backpressure so they can
  // observe aborted_ and unwind.
  chip_.pulse_egress_waiters();
}

void DmaController::on_completion_timeout(std::uint8_t tag) {
  std::optional<PendingRead>& pr = pending_reads_[read_slot(tag)];
  if (!pr) return;
  pr->timeout_event = sim::Scheduler::kInvalidEvent;
  ++completion_timeouts_;
  Log::write(LogLevel::kWarn, sched_.now(), "dmac",
             "completion timeout, aborting chain");
  chip_.raise_error(regs::kErrCompletionTimeout);
  abort(ErrorCode::kTimedOut);
}

sim::Task<> DmaController::run_chain() {
  // Doorbell cost is emergent (MMIO store through the N link); only the
  // table fetch is modeled as a lump: the MRd round trip for the first
  // descriptor group ("retrieving the descriptor table is the dominant
  // factor", Figure 8).
  co_await sim::Delay(sched_, kDescriptorTableFetchPs);
  ++table_fetches_;
  const std::vector<DmaDescriptor> chain = fetch_table_(table_addr_, count_);

  for (const DmaDescriptor& d : chain) {
    if ((status_ & kStatusError) != 0) break;
    co_await exec_one(d);
    if (!aborted_) ++descs_done_;
    ++current_desc_;
  }
  co_await complete_chain();
}

sim::Task<> DmaController::run_immediate(DmaDescriptor d) {
  // No doorbell-to-table round trip: the descriptor is already latched in
  // registers; only the engine arbitration gap remains.
  co_await sim::Delay(sched_, kDescriptorProcessPs);
  co_await exec_one(d);
  ++descs_done_;
  co_await complete_chain();
}

// By value: coroutine parameters taken by reference can dangle across the
// first suspension; the descriptor is small and is moved into the frame.
sim::Task<> DmaController::exec_one(DmaDescriptor d) {
  const TimePs begin = sched_.now();
  switch (d.direction) {
    case DmaDirection::kWrite: co_await exec_write(d); break;
    case DmaDirection::kRead: co_await exec_read(d); break;
    case DmaDirection::kPipelined: co_await exec_pipelined(d); break;
    default:
      // The immediate length register's direction bits and a table entry's
      // direction word can both name no direction: a descriptor error, not
      // a completed descriptor that moved nothing.
      fail_descriptor(ErrorCode::kInvalidArgument);
      co_return;
  }
  if (Trace* trace = sched_.trace()) {
    const char* kind = d.direction == DmaDirection::kWrite      ? "write"
                       : d.direction == DmaDirection::kRead     ? "read"
                                                                : "pipelined";
    trace->duration(
        "dmac/node" + std::to_string(chip_.node_id()),
        std::string(kind) + " " + units::format_size(d.length), begin,
        sched_.now());
  }
}

sim::Task<> DmaController::complete_chain() {
  // Chain completion: every delivery notification and read completion in,
  // every pipelined forward injected, and the egress FIFOs flushed — so a
  // PIO flag issued after the completion signal cannot overtake chain data.
  co_await drain_acks(0);
  while (outstanding_reads_ > 0 && !aborted_) co_await reads_drained_.wait();
  while (pending_forwards_ > 0 && !aborted_) co_await forwards_done_.wait();
  for (std::size_t p = 0; p < kPortCount && !aborted_; ++p) {
    const auto port = static_cast<PortId>(p);
    if (chip_.link_up(port)) co_await chip_.drain_egress(port, &aborted_);
  }

  status_ = (status_ & kStatusError) | kStatusDone;
  ++chains_done_;
  if (Trace* trace = sched_.trace()) {
    trace->instant(
        "dmac/node" + std::to_string(chip_.node_id()),
        writeback_addr_ != 0 ? "writeback" : "interrupt", sched_.now());
  }

  if (writeback_addr_ != 0) {
    // Polled completion: one 8-byte posted write to host memory (cheaper
    // than the interrupt path; the driver spins on the word). Never given
    // up on abort: like the interrupt, it is the driver's only completion
    // edge, and the host port drains regardless of the fabric.
    const std::uint64_t value = chains_done_;
    co_await chip_.inject(pcie::Tlp::mem_write(
        writeback_addr_, std::as_bytes(std::span(&value, 1)),
        chip_.device_id()));
  } else {
    ++interrupts_;
    chip_.raise_interrupt(channel_);
  }
}

sim::Task<> DmaController::exec_write(DmaDescriptor d) {
  // "the internal memory of PEACH2 must be specified as the source address
  //  on DMA write" (Section IV-B2).
  const auto src = chip_.layout().decode(d.src);
  const auto dst = chip_.layout().decode(d.dst);
  if (!src.has_value() || src->node != chip_.node_id() ||
      src->target != TcaTarget::kInternal ||
      src->offset < Peach2Chip::kInternalRamOffset ||
      src->offset - Peach2Chip::kInternalRamOffset + d.length >
          chip_.internal_ram().size() ||
      !dst.has_value() || d.length == 0) {
    fail_descriptor(ErrorCode::kInvalidArgument);
    co_return;
  }
  const std::uint64_t src_off = src->offset - Peach2Chip::kInternalRamOffset;
  // Every remote memory destination gets a PEARL delivery notification on
  // the descriptor's final TLP — GPU windows included, or a "reliable" put
  // into a GPU staging buffer would complete at source-egress drain with no
  // end-to-end evidence the bytes ever landed. Internal targets are the
  // mailbox itself: acking them would ack the acks. CPU targets throttle
  // descriptor issue on the 2-deep window (the Figure 12 small-size
  // degradation); GPU targets get the full-tag-rotation window — the GPU's
  // deep request queue absorbs posted writes, so remote GPU bandwidth stays
  // equal to in-node at all sizes while the chain still holds completion
  // until every notification is in.
  const bool want_ack =
      dst->node != chip_.node_id() && dst->target != TcaTarget::kInternal;
  const std::uint32_t ack_window = dst->target == TcaTarget::kHost
                                       ? kRemoteAckWindow
                                       : calib::kGpuRemoteAckWindow;

  co_await sim::Delay(sched_, kDescriptorProcessPs);

  std::uint8_t ack_tag = 0;
  std::uint64_t sent = 0;
  while (sent < d.length && !aborted_) {
    const auto chunk = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(kMaxPayloadBytes, d.length - sent));
    pcie::TlpPtr tlp = pcie::Tlp::mem_write(
        d.dst + sent, chip_.internal_ram().view(src_off + sent, chunk),
        chip_.device_id());
    if (want_ack && sent + chunk == d.length) {
      ack_tag = next_ack_tag_;
      next_ack_tag_ = next_ack_tag();
      ack_state_[ack_slot(ack_tag)] = AckState::kAwaited;
      tlp->ack_address = chip_.internal_block_base();
      tlp->tag = ack_tag;
    }
    co_await chip_.inject(std::move(tlp), &aborted_);
    sent += chunk;
  }
  if (aborted_) co_return;

  // Chaining-engine serialization: the next descriptor is decoded only
  // after this one's data has left the chip (see drain_egress).
  if (const auto port = chip_.egress_port_for(d.dst); port.has_value()) {
    co_await chip_.drain_egress(*port, &aborted_);
  }

  if (want_ack && !aborted_) {
    pending_acks_.push_back(ack_tag);
    // Window the delivery notifications: the engine may run ahead of the
    // outstanding acks by the destination's window, so per-descriptor cost
    // becomes max(wire_time, ack_rtt / window) — the Figure 12 shape.
    co_await drain_acks(ack_window - 1);
  }
  bytes_written_ += d.length;
}

sim::Task<> DmaController::exec_read(DmaDescriptor d) {
  // "the internal memory ... as the destination address on DMA read";
  // remote get is unsupported (put-only fabric).
  const auto src = chip_.layout().decode(d.src);
  const auto dst = chip_.layout().decode(d.dst);
  if (!dst.has_value() || dst->node != chip_.node_id() ||
      dst->target != TcaTarget::kInternal ||
      dst->offset < Peach2Chip::kInternalRamOffset ||
      dst->offset - Peach2Chip::kInternalRamOffset + d.length >
          chip_.internal_ram().size() ||
      !src.has_value() || src->node != chip_.node_id() ||
      src->target == TcaTarget::kInternal || d.length == 0) {
    fail_descriptor(ErrorCode::kInvalidArgument);
    co_return;
  }
  const auto local_src = chip_.convert_to_local(*src);
  TCA_ASSERT(local_src.has_value());
  const std::uint64_t dst_off = dst->offset - Peach2Chip::kInternalRamOffset;

  co_await sim::Delay(sched_, kDescriptorProcessPs);

  std::uint64_t issued = 0;
  while (issued < d.length && !aborted_) {
    const auto chunk = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(kMaxReadRequestBytes, d.length - issued));
    const std::uint8_t tag = co_await acquire_tag();
    if (aborted_) {
      release_tag(tag);
      co_return;
    }
    co_await sim::Delay(sched_, kReadIssueIntervalPs);
    if (aborted_) {
      release_tag(tag);
      co_return;
    }
    // tca-protocol: transfer(dma-tag)
    pending_reads_[read_slot(tag)] = PendingRead{
        .dst_internal_offset = dst_off + issued, .remaining = chunk};
    pending_reads_[read_slot(tag)]->timeout_event = sched_.schedule_after(
        calib::kCompletionTimeoutPs, [this, tag] { on_completion_timeout(tag); });
    ++outstanding_reads_;
    co_await chip_.inject(pcie::Tlp::mem_read(*local_src + issued, chunk,
                                              chip_.device_id(), tag),
                          &aborted_);
    issued += chunk;
  }
  // Residual drain bubble at the descriptor boundary (calibrated; see
  // kReadDescriptorGapPs).
  co_await sim::Delay(sched_, kReadDescriptorGapPs);
  bytes_read_ += d.length;
}

sim::Task<> DmaController::exec_pipelined(DmaDescriptor d) {
  // The redesigned DMAC of Section IV-B2: local source -> (remote)
  // destination in one descriptor, reads and writes overlapped in a
  // pipeline instead of staging through internal memory.
  const auto src = chip_.layout().decode(d.src);
  const auto dst = chip_.layout().decode(d.dst);
  if (!src.has_value() || src->node != chip_.node_id() ||
      src->target == TcaTarget::kInternal || !dst.has_value() ||
      dst->target == TcaTarget::kInternal || d.length == 0) {
    fail_descriptor(ErrorCode::kInvalidArgument);
    co_return;
  }
  const auto local_src = chip_.convert_to_local(*src);
  TCA_ASSERT(local_src.has_value());
  // Same remote-destination notification and windowing rules as exec_write.
  const bool want_ack =
      dst->node != chip_.node_id() && dst->target != TcaTarget::kInternal;
  const std::uint32_t ack_window = dst->target == TcaTarget::kHost
                                       ? kRemoteAckWindow
                                       : calib::kGpuRemoteAckWindow;

  co_await sim::Delay(sched_, kDescriptorProcessPs);

  std::uint64_t issued = 0;
  while (issued < d.length && !aborted_) {
    const auto chunk = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(kMaxReadRequestBytes, d.length - issued));
    const bool last = issued + chunk == d.length;
    const std::uint8_t tag = co_await acquire_tag();
    co_await sim::Delay(sched_, kReadIssueIntervalPs);
    if (aborted_) {
      release_tag(tag);
      co_return;
    }
    PendingRead pending{.forward_to = d.dst + issued, .remaining = chunk,
                        .last_of_descriptor = last};
    if (want_ack && last) {
      pending.ack_tag = next_ack_tag_;
      next_ack_tag_ = next_ack_tag();
      pending.ack_address = chip_.internal_block_base();
      ack_state_[ack_slot(pending.ack_tag)] = AckState::kAwaited;
      pending_acks_.push_back(pending.ack_tag);
    }
    pending.timeout_event = sched_.schedule_after(
        calib::kCompletionTimeoutPs, [this, tag] { on_completion_timeout(tag); });
    pending_reads_[read_slot(tag)] = pending;  // tca-protocol: transfer(dma-tag)
    ++outstanding_reads_;
    co_await chip_.inject(pcie::Tlp::mem_read(*local_src + issued, chunk,
                                              chip_.device_id(), tag),
                          &aborted_);
    issued += chunk;
  }
  co_await drain_acks(ack_window - 1);
  bytes_read_ += d.length;
  bytes_written_ += d.length;
}

void DmaController::on_read_completion(pcie::TlpPtr cpl) {
  // The read tag, saved first: forwarding rewrites the header, tag included,
  // and the tag goes back to the pool only after the forward is spawned.
  const std::uint8_t tag = cpl->tag;
  if (!is_read_tag(tag) || !pending_reads_[read_slot(tag)]) {
    ++errors_;
    return;
  }
  std::optional<PendingRead>& entry = pending_reads_[read_slot(tag)];
  PendingRead& pr = *entry;
  TCA_ASSERT(cpl->payload.size() <= pr.remaining);
  const auto size = static_cast<std::uint32_t>(cpl->payload.size());

  if (pr.forward_to != 0) {
    // Pipelined mode: forward the chunk toward the destination immediately.
    // The completion becomes the write in place; nothing is copied.
    cpl->rewrite_as_mem_write(pr.forward_to, chip_.device_id());
    pr.forward_to += size;
    if (pr.last_of_descriptor && pr.remaining == size &&
        pr.ack_address != 0) {
      cpl->ack_address = pr.ack_address;
      cpl->tag = pr.ack_tag;
    }
    ++pending_forwards_;
    sim::spawn([](DmaController& dmac, pcie::TlpPtr tlp) -> sim::Task<> {
      co_await dmac.chip_.inject(std::move(tlp), &dmac.aborted_);
      if (--dmac.pending_forwards_ == 0) dmac.forwards_done_.pulse();
    }(*this, std::move(cpl)));
  } else {
    chip_.internal_ram().write(pr.dst_internal_offset, cpl->payload);
    pr.dst_internal_offset += size;
  }

  pr.remaining -= size;
  if (pr.remaining == 0) {
    if (pr.timeout_event != sim::Scheduler::kInvalidEvent) {
      sched_.cancel(pr.timeout_event);
    }
    entry.reset();
    release_tag(tag);
    TCA_ASSERT(outstanding_reads_ > 0);
    if (--outstanding_reads_ == 0) reads_drained_.pulse();
  }
}

void DmaController::on_delivery_ack(std::uint8_t tag) {
  if (is_read_tag(tag) || ack_state_[ack_slot(tag)] == AckState::kNone) {
    ++errors_;
    return;
  }
  AckState& state = ack_state_[ack_slot(tag)];
  state = AckState::kArrived;
  ack_event_.pulse();
}

bool DmaController::ack_arrived(std::uint8_t tag) const {
  const AckState state = ack_state_[ack_slot(tag)];
  TCA_ASSERT(state != AckState::kNone && "awaiting an ack never requested");
  return state == AckState::kArrived;
}

sim::Task<> DmaController::drain_acks(std::size_t max_pending) {
  while (pending_acks_.size() > max_pending) {
    const std::uint8_t front = pending_acks_.front();
    // An abort clears the window while this loop is suspended, so the
    // abort check must come before any table access.
    while (!aborted_ && !ack_arrived(front)) co_await ack_event_.wait();
    if (aborted_) co_return;
    ack_state_[ack_slot(front)] = AckState::kNone;
    pending_acks_.pop_front();
  }
}

// tca-protocol: acquires(dma-tag)
sim::Task<std::uint8_t> DmaController::acquire_tag() {
  co_await tag_sem_.acquire();
  TCA_ASSERT(!free_tags_.empty());
  const std::uint8_t tag = free_tags_.back();
  free_tags_.pop_back();
  co_return tag;
}

// tca-protocol: releases(dma-tag)
void DmaController::release_tag(std::uint8_t tag) {
  free_tags_.push_back(tag);
  tag_sem_.release();
}

}  // namespace tca::peach2
