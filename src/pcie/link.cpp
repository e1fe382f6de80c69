#include "pcie/link.h"

#include <cmath>
#include <utility>

#include "common/trace.h"

namespace tca::pcie {

namespace {

TimePs serialize_time(std::uint64_t wire_bytes, double ps_per_byte) {
  return static_cast<TimePs>(
      std::llround(static_cast<double>(wire_bytes) * ps_per_byte));
}

}  // namespace

double LinkConfig::raw_bytes_per_sec() const {
  if (custom_bytes_per_sec > 0) return custom_bytes_per_sec;
  // Per-lane byte rates after line encoding:
  //   Gen1: 2.5 GT/s * 8/10 = 250 MB/s   Gen2: 5 GT/s * 8/10 = 500 MB/s
  //   Gen3: 8 GT/s * 128/130 = 984.6 MB/s
  double per_lane = 0.0;
  switch (gen) {
    case 1: per_lane = 250e6; break;
    case 2: per_lane = 500e6; break;
    case 3: per_lane = 8e9 * 128.0 / 130.0 / 8.0; break;
    default: TCA_ASSERT(false && "unsupported PCIe generation");
  }
  return per_lane * lanes;
}

bool LinkPort::can_send(const Tlp& tlp) const {
  return tx_queued_ + tlp.wire_bytes() <= cfg_->tx_queue_bytes;
}

void LinkPort::send(TlpPtr tlp) {
  TCA_ASSERT(can_send(*tlp));
  tx_queued_ += tlp->wire_bytes();
  tx_queue_.push_back(std::move(tlp));
  try_transmit();
}

void LinkPort::release_rx(std::uint64_t wire_bytes) {
  rx_free_ += wire_bytes;
  TCA_ASSERT(rx_free_ <= cfg_->rx_buffer_bytes);
  // Freed buffer space may unblock the peer's serializer.
  peer_->try_transmit();
}

void LinkPort::try_transmit() {
  if (wire_busy_ || tx_queue_.empty() || !*link_up_) return;
  const std::uint64_t wb = tx_queue_.front()->wire_bytes();
  if (peer_->rx_free_ < wb) {
    // No credits: head-of-line blocked until release_rx. Time the stall so
    // per-link backpressure shows up in the metrics export.
    if (stall_since_ < 0) stall_since_ = sched_->now();
    return;
  }
  if (stall_since_ >= 0) {
    credit_stall_ps_ += sched_->now() - stall_since_;
    stall_since_ = -1;
  }

  TlpPtr tlp = std::move(tx_queue_.front());
  tx_queue_.pop_front();
  tx_queued_ -= wb;
  peer_->rx_free_ -= wb;
  wire_busy_ = true;

  ++tlps_sent_;
  wire_sent_ += wb;
  data_sent_ += tlp->payload.size();

  const TimePs serialize = serialize_time(wb, ps_per_byte_);

  // Data-link-layer reliability: a corrupted TLP fails its LCRC at the
  // receiver, which NAKs; the sender retransmits from the replay buffer.
  // Receiver credits stay reserved across the retry.
  if (cfg_->bit_error_rate > 0) {
    const double p_err =
        1.0 - std::pow(1.0 - cfg_->bit_error_rate,
                       static_cast<double>(wb) * 8.0);
    if (error_rng_->next_double() < p_err) {
      ++replays_;
      if (++head_replay_count_ == calib::kReplayThreshold &&
          replay_threshold_cb_) {
        replay_threshold_cb_();
      }
      // The wire stays busy until the retry is requeued: replay-buffer
      // ordering forbids later TLPs overtaking the failed one.
      replay_ = std::move(tlp);
      wire_done_event_ = sched_->schedule_after(
          serialize + calib::kReplayDelayPs, [this] { replay_done(); });
      return;
    }
  }
  head_replay_count_ = 0;

  if (Trace* trace = sched_->trace();
      trace != nullptr && !cfg_->name.empty()) {
    trace->duration(
        cfg_->name,
        std::string(to_string(tlp->type)) + " " +
            units::format_size(tlp->payload.empty() ? wb
                                                    : tlp->payload.size()),
        sched_->now(), sched_->now() + serialize);
  }
  // Track the delivery event so a surprise-down can pull the TLP off the
  // wire. Deliveries fire in FIFO order (the serializer forbids overtaking),
  // so the handler always consumes the front element.
  in_flight_.push_back(InFlight{sim::Scheduler::kInvalidEvent, std::move(tlp)});
  if (cfg_->propagation_ps == 0) {
    // Zero flight: as two events, the wire-done and the delivery would fall
    // on the same picosecond with consecutive seqs, so no event could fire
    // between them. One event at the first one's key runs both, in that
    // order, and every other event keeps its place in the fire order.
    wire_done_event_ = sched_->schedule_after(serialize, [this] {
      wire_done();
      deliver_front();
    });
    in_flight_.back().event = wire_done_event_;
    return;
  }
  wire_done_event_ = sched_->schedule_after(serialize, [this] { wire_done(); });
  in_flight_.back().event = sched_->schedule_after(
      serialize + cfg_->propagation_ps, [this] { deliver_front(); });
}

void LinkPort::wire_done() {
  wire_done_event_ = sim::Scheduler::kInvalidEvent;
  wire_busy_ = false;
  try_transmit();
  if (tx_ready_) tx_ready_();
}

void LinkPort::replay_done() {
  wire_done_event_ = sim::Scheduler::kInvalidEvent;
  wire_busy_ = false;
  requeue(std::move(replay_));  // credits re-reserved on the retry
  try_transmit();
}

void LinkPort::requeue(TlpPtr tlp) {
  peer_->rx_free_ += tlp->wire_bytes();
  tx_queued_ += tlp->wire_bytes();
  tx_queue_.push_front(std::move(tlp));
}

void LinkPort::deliver_front() {
  TlpPtr t = std::move(in_flight_.front().tlp);
  in_flight_.pop_front();
  peer_->deliver(std::move(t));
}

void LinkPort::on_link_down() {
  // Surprise-down: TLPs in flight never reach the peer, and a TLP held for
  // LCRC replay is never retransmitted on this training. The data-link
  // layer never received their ack DLLPs, so they go back to the head of
  // the replay buffer (front of the egress queue) in their original order,
  // newest pushed first, and their reserved receiver credits are returned.
  // Count and trace every drop — silent TLP loss is how fault bugs hide.
  const std::size_t dropped = in_flight_.size() + (replay_ ? 1 : 0);
  if (replay_) {
    TCA_ASSERT(sched_->cancel(wire_done_event_));
    wire_done_event_ = sim::Scheduler::kInvalidEvent;
    wire_busy_ = false;
    requeue(std::move(replay_));
  }
  while (!in_flight_.empty()) {
    InFlight& f = in_flight_.back();
    TCA_ASSERT(sched_->cancel(f.event));
    requeue(std::move(f.tlp));
    in_flight_.pop_back();
  }
  dropped_tlps_ += dropped;
  if (wire_done_event_ != sim::Scheduler::kInvalidEvent) {
    // A zero-flight hop's one event is also its TLP's delivery, cancelled
    // above.
    if (cfg_->propagation_ps > 0) TCA_ASSERT(sched_->cancel(wire_done_event_));
    wire_done_event_ = sim::Scheduler::kInvalidEvent;
    wire_busy_ = false;
  }
  head_replay_count_ = 0;
  if (Trace* trace = sched_->trace();
      trace != nullptr && dropped > 0 && !cfg_->name.empty()) {
    trace->instant(
        cfg_->name, "link-down: " + std::to_string(dropped) + " TLPs dropped",
        sched_->now());
  }
}

std::size_t LinkPort::abandon_queued() {
  // Only queued (never-transmitted or surprise-down-returned) TLPs are
  // discarded. TLPs already past the serializer stay untouched: when the
  // link is up they are committed to the wire and deliver exactly once, and
  // when it is down on_link_down has already pulled them back into the
  // queue we are about to clear. Queued TLPs hold no receiver credits
  // (credits are reserved at transmit, and on_link_down returns them), so
  // no credit bookkeeping is needed here.
  const std::size_t n = tx_queue_.size();
  for (const TlpPtr& t : tx_queue_) tx_queued_ -= t->wire_bytes();
  tx_queue_.clear();
  abandoned_tlps_ += n;
  if (Trace* trace = sched_->trace();
      trace != nullptr && n > 0 && !cfg_->name.empty()) {
    trace->instant(
        cfg_->name,
        "failover: " + std::to_string(n) + " held TLPs abandoned",
        sched_->now());
  }
  return n;
}

void LinkPort::deliver(TlpPtr tlp) {
  TCA_ASSERT(sink_ != nullptr && "LinkPort has no sink attached");
  sink_->on_tlp(std::move(tlp), *this);
}

PcieLink::PcieLink(sim::Scheduler& sched, LinkConfig cfg)
    : cfg_(cfg), error_rng_(cfg.error_seed), a_(sched, cfg_), b_(sched, cfg_) {
  a_.peer_ = &b_;
  b_.peer_ = &a_;
  a_.link_up_ = &up_;
  b_.link_up_ = &up_;
  a_.error_rng_ = &error_rng_;
  b_.error_rng_ = &error_rng_;
}

void PcieLink::set_up(bool up) {
  if (up_ == up) return;
  up_ = up;
  if (!up_) {
    a_.on_link_down();
    b_.on_link_down();
  }
  if (a_.link_state_cb_) a_.link_state_cb_(up_);
  if (b_.link_state_cb_) b_.link_state_cb_(up_);
  if (up_) {
    a_.try_transmit();
    b_.try_transmit();
  }
}

}  // namespace tca::pcie
