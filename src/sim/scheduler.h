// Discrete-event scheduler.
//
// Deterministic: everything fires in (time, insertion-order) order, so two
// runs with the same inputs produce identical traces. Each filing takes the
// next `seq`, the tiebreak between same-picosecond keys. Coroutine
// resumptions in the simulator are routed through the scheduler, which
// keeps call stacks shallow and ordering well-defined even when a component
// fires a trigger from inside another component's callback.
//
// Events live in one IndexedQueue: a calendar ring of (time, seq)-sorted
// bucket lists threaded through a slot pool of allocation-free
// sim::EventFn, fronting a 4-ary far heap (see indexed_queue.h for the full
// design). Fires run under the scheduler's FrameArena, so coroutine frames
// spawned inside them recycle through pooled memory instead of the global
// heap (see arena.h).
//
// Two kinds of work skip the queue, each keyed exactly as the queue event
// it replaces, so the fire order is the queue's to the picosecond.
// fire_next() fires whichever of the three heads sorts first: the queue's,
// the wake lane's and the earliest poller's.
//
// Zero-delay wakes (sim::Trigger, sim::Semaphore) go to the wake lane, a
// FIFO of coroutine handles. wake() takes its seq where filing a zero-delay
// event that resumes the handle would, at the current picosecond. Nothing
// fires past the lane's front, so `now` cannot pass a pending wake: the
// lane only holds keys at `now`, in seq order, and its front is its
// minimum. A wake counts as the event it replaces in events_processed().
//
// Poll loops are not queue events either. A CPU spinning on a memory word
// (sim::PollUntil) would otherwise file, pop and resume one event per
// iteration, most of the events on a latency path. Instead each armed
// poller is keyed by the (time, seq) that the loop's next
// `co_await Delay(period)` event would have had. A failing tick re-keys its
// poller to (time + period, next seq), taking its seq exactly where the
// loop's rescheduling did; a passing tick disarms it and resumes the waiter
// inline, at the tick's own key, where that event would have resumed it.
// The armed pollers sit in a ring kept in key order, filed from the back.
// Every poller in the simulator polls with the same period, so a re-keyed
// tick sorts after every other armed one: a tick is a pop from the front
// and an append, however many pollers are armed. A mix of periods makes
// the filing walk back; disarming a parked poller erases it in place.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/error.h"
#include "common/units.h"
#include "sim/arena.h"
#include "sim/event_fn.h"
#include "sim/indexed_queue.h"
#include "sim/ring.h"

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

  /// Resumes `h` at the current picosecond, after everything already due
  /// now: the key and the fire of a zero-delay event resuming it, through
  /// the wake lane (see the file comment). Used by sim::Trigger and
  /// sim::Semaphore.
  void wake(std::coroutine_handle<> h) { lane_.push_back(Wake{seq_++, h}); }

  /// Parks `w` until `w.test` holds, testing it every `period` (> 0) of
  /// simulated time from now; the first tick takes the next seq, as a
  /// `Delay(period)` filed here would. Used by sim::PollUntil.
  void arm_poll(PollWaiter& w, TimePs period) {
    TCA_ASSERT(period > 0 && !w.armed);
    w.armed = true;
    file_poller(Poller{now_ + period, seq_++, period, &w});
  }

  /// Drops `w`'s poller if it is still armed (its frame is going away).
  void disarm_poll(PollWaiter& w) {
    if (!w.armed) return;
    w.armed = false;
    std::size_t i = 0;
    while (pollers_[i].waiter != &w) {
      ++i;
      TCA_ASSERT(i < pollers_.size() && "armed PollWaiter not found");
    }
    for (; i + 1 < pollers_.size(); ++i) pollers_[i] = pollers_[i + 1];
    pollers_.pop_back();
  }

  /// Runs the earliest pending event, wake or poll tick. Returns false if
  /// there is none.
  bool step() {
    ArenaScope scope(&arena_);
    return fire_next(kNoLimit);
  }

  /// Runs events, wakes and poll ticks until none is pending.
  void run() {
    // One arena scope spans the whole drain: two thread-local writes total
    // instead of two per event (step() keeps the per-event scope).
    ArenaScope scope(&arena_);
    while (fire_next(kNoLimit)) {
    }
  }

  /// Runs all events, wakes and poll ticks with time <= `t`, then advances
  /// now to `t`.
  void run_until(TimePs t);

  /// Runs all events within the next `duration` of simulated time.
  void run_for(TimePs duration) { run_until(now_ + duration); }

  /// True when no event is queued, no wake is pending and no poller is
  /// armed.
  [[nodiscard]] bool empty() const {
    return queue_.empty() && lane_.empty() && pollers_.empty();
  }

  /// Queue events and wakes fired (a wake stands for the zero-delay event
  /// it replaces). Poll ticks are not queue events and do not count.
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

  /// A pending wake; its time is always `now_`.
  struct Wake {
    std::uint64_t seq;
    std::coroutine_handle<> handle;
  };

  /// An armed PollWaiter keyed by its next tick.
  struct Poller {
    TimePs time;
    std::uint64_t seq;
    TimePs period;
    PollWaiter* waiter;
  };

  /// Fires the earliest live event, wake or poll tick iff its time <=
  /// `limit`. The caller must hold an ArenaScope on the scheduler's arena.
  bool fire_next(TimePs limit) {
    IndexedQueue::Key k;
    const bool queued = queue_.peek(now_, &k);
    if (!lane_.empty()) {
      // Due now, so never past `limit` (>= now_).
      const IndexedQueue::Key wake{now_, lane_.front().seq};
      if ((!queued || detail::earlier(wake, k)) &&
          (pollers_.empty() || detail::earlier(wake, pollers_.front()))) {
        const std::coroutine_handle<> h = lane_.front().handle;
        lane_.pop_front();
        ++processed_;
        h.resume();
        return true;
      }
    }
    if (!pollers_.empty() &&
        (!queued || detail::earlier(pollers_.front(), k))) {
      if (pollers_.front().time > limit) return false;
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
    Poller p = pollers_.front();
    pollers_.pop_front();
    TCA_ASSERT(p.time >= now_);
    now_ = p.time;
    PollWaiter& w = *p.waiter;
    if (!w.test(w)) {
      p.time += p.period;
      p.seq = seq_++;
      file_poller(p);
      return;
    }
    w.armed = false;
    w.waiter.resume();
  }

  /// Files `p` in key order, walking back from the tail: an append unless
  /// periods differ.
  void file_poller(const Poller& p) {
    pollers_.push_back(p);
    for (std::size_t i = pollers_.size() - 1;
         i > 0 && detail::earlier(p, pollers_[i - 1]); --i) {
      std::swap(pollers_[i], pollers_[i - 1]);
    }
  }

  Ring<Wake> lane_;
  Ring<Poller> pollers_;
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
