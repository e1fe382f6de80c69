// Discrete-event scheduler.
//
// Deterministic: events fire in (time, insertion-order) order, so two runs
// with the same inputs produce identical traces. Coroutine resumptions in
// the simulator are routed through this queue, which keeps call stacks
// shallow and event ordering well-defined even when a component fires a
// trigger from inside another component's callback.
//
// Storage is one IndexedQueue: a calendar ring of (time, seq)-sorted bucket
// lists threaded through a slot pool of allocation-free sim::EventFn,
// fronting a 4-ary far heap (see indexed_queue.h for the full design).
// Event fires run under the scheduler's FrameArena, so coroutine frames
// spawned inside events recycle through pooled memory instead of the
// global heap (see arena.h).
//
// Poll loops are the exception: they are not queue events. A CPU spinning
// on a memory word (sim::PollUntil) would otherwise file, pop and resume
// one event per iteration, most of the events on a latency path. Instead
// the scheduler keeps each armed poller beside the queue, keyed by the
// (time, seq) that the loop's next `co_await Delay(period)` event would
// have had, and fires whichever of the queue head and the earliest poller
// sorts first. A failing tick re-keys its poller to (time + period, next
// seq), taking its seq exactly where the loop's rescheduling did; a passing
// tick disarms it and resumes the waiter inline, at the tick's own key,
// where that event would have resumed it. So every queue event keeps its
// place in the fire order, and each tick takes the place of the event it
// replaces, to the picosecond.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/units.h"
#include "sim/arena.h"
#include "sim/event_fn.h"
#include "sim/indexed_queue.h"

namespace tca {
class Trace;
}  // namespace tca

namespace tca::sim {

/// A coroutine parked in a poll loop: the record sim::PollUntil shares with
/// the scheduler while it is armed. `test` evaluates the polled condition.
/// It may read and write simulation state, but must not arm or disarm a
/// poller.
struct PollWaiter {
  bool (*test)(PollWaiter&) = nullptr;
  std::coroutine_handle<> waiter;
  bool armed = false;
};

class Scheduler {
 public:
  using EventId = std::uint64_t;
  static constexpr EventId kInvalidEvent = 0;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time.
  [[nodiscard]] TimePs now() const { return now_; }

  /// Schedules `fn` at absolute time `t` (must be >= now). Returns an id
  /// usable with cancel(). Captures up to EventFn::kInlineBytes are stored
  /// without heap allocation, constructed directly in their slot.
  template <typename F>
  EventId schedule_at(TimePs t, F&& fn) {
    TCA_ASSERT(t >= now_);
    const IndexedQueue::Ref ref =
        queue_.schedule(t, now_, seq_++, std::forward<F>(fn));
    // Slot index + 1 keeps 0 == kInvalidEvent; the generation stamp makes ids
    // from recycled slots distinguishable so cancel-after-fire reports false.
    return (static_cast<EventId>(ref.gen) << 32) | (ref.index + 1u);
  }

  /// Schedules `fn` after a relative delay (>= 0).
  template <typename F>
  EventId schedule_after(TimePs delay, F&& fn) {
    TCA_ASSERT(delay >= 0);
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Cancels a pending event. Returns false if it already ran, was already
  /// cancelled, or the id is unknown. O(1).
  bool cancel(EventId id) {
    const std::uint64_t lo = id & 0xffffffffu;
    if (lo == 0) return false;
    return queue_.cancel(IndexedQueue::Ref{
        static_cast<std::uint32_t>(lo - 1), static_cast<std::uint32_t>(id >> 32)});
  }

  /// Parks `w` until `w.test` holds, testing it every `period` (> 0) of
  /// simulated time from now; the first tick takes the next seq, as a
  /// `Delay(period)` filed here would. Used by sim::PollUntil.
  void arm_poll(PollWaiter& w, TimePs period) {
    TCA_ASSERT(period > 0 && !w.armed);
    w.armed = true;
    pollers_.push_back(Poller{now_ + period, seq_++, period, &w});
    if (detail::earlier(pollers_.back(), pollers_[next_poll_])) {
      next_poll_ = pollers_.size() - 1;
    }
  }

  /// Drops `w`'s poller if it is still armed (its frame is going away).
  void disarm_poll(PollWaiter& w) {
    if (!w.armed) return;
    for (std::size_t i = 0; i < pollers_.size(); ++i) {
      if (pollers_[i].waiter == &w) {
        remove_poller(i);
        return;
      }
    }
    TCA_ASSERT(false && "armed PollWaiter not found");
  }

  /// Runs the earliest pending event or poll tick. Returns false if there
  /// is none.
  bool step() {
    ArenaScope scope(&arena_);
    return fire_next(kNoLimit);
  }

  /// Runs events and poll ticks until none is pending.
  void run() {
    // One arena scope spans the whole drain: two thread-local writes total
    // instead of two per event (step() keeps the per-event scope).
    ArenaScope scope(&arena_);
    while (fire_next(kNoLimit)) {
    }
  }

  /// Runs all events and poll ticks with time <= `t`, then advances now to
  /// `t`.
  void run_until(TimePs t);

  /// Runs all events within the next `duration` of simulated time.
  void run_for(TimePs duration) { run_until(now_ + duration); }

  /// True when no event is queued and no poller is armed.
  [[nodiscard]] bool empty() const {
    return queue_.empty() && pollers_.empty();
  }

  /// Queue events fired. Poll ticks are not queue events and do not count.
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }

  /// The frame arena (coroutine frames, TLPs and their payloads allocated
  /// during event execution recycle through it).
  [[nodiscard]] FrameArena& arena() { return arena_; }

  /// Attaches the caller-owned trace this simulation records into, which
  /// must outlive its events; null (the default) turns tracing off.
  /// Recording never schedules an event, so tracing moves no result.
  void set_trace(Trace* trace) { trace_ = trace; }
  [[nodiscard]] Trace* trace() const { return trace_; }

 private:
  static constexpr TimePs kNoLimit = std::numeric_limits<TimePs>::max();

  /// An armed PollWaiter keyed by its next tick.
  struct Poller {
    TimePs time;
    std::uint64_t seq;
    TimePs period;
    PollWaiter* waiter;
  };

  /// Fires the earliest live event or poll tick iff its time <= `limit`.
  /// The caller must hold an ArenaScope on the scheduler's arena.
  bool fire_next(TimePs limit) {
    IndexedQueue::Key k;
    const bool queued = queue_.peek(now_, &k);
    if (!pollers_.empty() &&
        (!queued || detail::earlier(pollers_[next_poll_], k))) {
      if (pollers_[next_poll_].time > limit) return false;
      fire_poll();
      return true;
    }
    if (!queued || k.time > limit) return false;
    TCA_ASSERT(k.time >= now_);
    EventFn fn;
    queue_.pop_min(&fn);
    now_ = k.time;
    ++processed_;
    fn();
    return true;
  }

  /// Runs the earliest poller's tick (see the file comment).
  void fire_poll() {
    Poller& p = pollers_[next_poll_];
    TCA_ASSERT(p.time >= now_);
    now_ = p.time;
    PollWaiter& w = *p.waiter;
    if (!w.test(w)) {
      p.time += p.period;
      p.seq = seq_++;
      find_next_poll();
      return;
    }
    remove_poller(next_poll_);
    w.waiter.resume();
  }

  void remove_poller(std::size_t i) {
    pollers_[i].waiter->armed = false;
    pollers_[i] = pollers_.back();
    pollers_.pop_back();
    find_next_poll();
  }

  /// Points next_poll_ at the earliest armed poller (0 when none is). A
  /// linear scan: a simulation arms a few dozen pollers at most, one per
  /// spinning CPU thread.
  void find_next_poll() {
    next_poll_ = 0;
    for (std::size_t i = 1; i < pollers_.size(); ++i) {
      if (detail::earlier(pollers_[i], pollers_[next_poll_])) next_poll_ = i;
    }
  }

  std::vector<Poller> pollers_;
  std::size_t next_poll_ = 0;
  TimePs now_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t seq_ = 0;

  // The arena is declared before the queue so pending EventFns (whose
  // captures may own arena blocks: TLP handles) are destroyed while the
  // arena is still alive.
  FrameArena arena_;
  IndexedQueue queue_;
  Trace* trace_ = nullptr;
};

}  // namespace tca::sim
