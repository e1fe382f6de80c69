#include "pcie/link.h"

#include <cmath>
#include <utility>

#include "common/trace.h"

namespace tca::pcie {

// The serializer/replay completions below capture [this, Tlp]; they must fit
// EventFn's inline buffer so steady-state transmission never heap-allocates.
static_assert(sizeof(Tlp) + sizeof(LinkPort*) <= sim::EventFn::kInlineBytes,
              "LinkPort transmit captures must stay inline in EventFn");

void LinkConfig::seal() const {
  double raw = custom_bytes_per_sec;
  if (raw <= 0) {
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
    raw = per_lane * lanes;
  }
  rate_cache_.raw_bytes_per_sec = raw;
  rate_cache_.ps_per_byte = 1e12 / raw;
  rate_cache_.gen = gen;
  rate_cache_.lanes = lanes;
  rate_cache_.custom_bytes_per_sec = custom_bytes_per_sec;
}

void LinkConfig::seal_check() const {
  if (rate_cache_.ps_per_byte == 0) {
    seal();
    return;
  }
  TCA_ASSERT(rate_cache_.gen == gen && rate_cache_.lanes == lanes &&
             rate_cache_.custom_bytes_per_sec == custom_bytes_per_sec &&
             "LinkConfig rate parameters mutated after first use");
}

double LinkConfig::raw_bytes_per_sec() const {
  seal_check();
  return rate_cache_.raw_bytes_per_sec;
}

double LinkConfig::ps_per_byte() const {
  seal_check();
  return rate_cache_.ps_per_byte;
}

TimePs LinkConfig::serialize_ps(std::uint64_t wire_bytes) const {
  seal_check();
  return static_cast<TimePs>(std::llround(static_cast<double>(wire_bytes) *
                                          rate_cache_.ps_per_byte));
}

bool LinkPort::can_send(const Tlp& tlp) const {
  return tx_queued_ + tlp.wire_bytes() <= cfg_->tx_queue_bytes;
}

void LinkPort::send(Tlp tlp) {
  TCA_ASSERT(can_send(tlp));
  tx_queued_ += tlp.wire_bytes();
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
  const std::uint64_t wb = tx_queue_.front().wire_bytes();
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

  Tlp tlp = std::move(tx_queue_.front());
  tx_queue_.pop_front();
  tx_queued_ -= wb;
  peer_->rx_free_ -= wb;
  wire_busy_ = true;

  ++tlps_sent_;
  wire_sent_ += wb;
  data_sent_ += tlp.payload.size();

  const TimePs serialize = cfg_->serialize_ps(wb);

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
      sched_->schedule_after(
          serialize + calib::kReplayDelayPs,
          [this, t = std::move(tlp)]() mutable {
            wire_busy_ = false;
            peer_->rx_free_ += t.wire_bytes();  // re-reserved on the retry
            tx_queued_ += t.wire_bytes();
            tx_queue_.push_front(std::move(t));
            try_transmit();
          });
      return;
    }
  }
  head_replay_count_ = 0;

  if (Trace* trace = sched_->trace();
      trace != nullptr && !cfg_->name.empty()) {
    trace->duration(
        cfg_->name,
        std::string(to_string(tlp.type)) + " " +
            units::format_size(tlp.payload.empty() ? wb
                                                   : tlp.payload.size()),
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

void LinkPort::deliver_front() {
  Tlp t = std::move(in_flight_.front().tlp);
  in_flight_.pop_front();
  peer_->deliver(std::move(t));
}

void LinkPort::on_link_down() {
  // Surprise-down: TLPs in flight never reach the peer. The data-link layer
  // never received their ack DLLPs, so they go back to the head of the
  // replay buffer (front of the egress queue, newest pushed first to keep
  // original order) and their reserved receiver credits are returned. Count
  // and trace every drop — silent TLP loss is how fault bugs hide.
  const std::size_t dropped = in_flight_.size();
  while (!in_flight_.empty()) {
    InFlight& f = in_flight_.back();
    TCA_ASSERT(sched_->cancel(f.event));
    ++dropped_tlps_;
    peer_->rx_free_ += f.tlp.wire_bytes();
    tx_queued_ += f.tlp.wire_bytes();
    tx_queue_.push_front(std::move(f.tlp));
    in_flight_.pop_back();
  }
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
  for (const Tlp& t : tx_queue_) tx_queued_ -= t.wire_bytes();
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

void LinkPort::deliver(Tlp tlp) {
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
