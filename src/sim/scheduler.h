// Discrete-event scheduler.
//
// Deterministic: events fire in (time, insertion-order) order, so two runs
// with the same inputs produce identical traces. All coroutine resumptions
// in the simulator are routed through this queue, which keeps call stacks
// shallow and event ordering well-defined even when a component fires a
// trigger from inside another component's callback.
//
// Storage is one IndexedQueue: a calendar ring of (time, seq)-sorted bucket
// lists threaded through a slot pool of allocation-free sim::EventFn,
// fronting a 4-ary far heap (see indexed_queue.h for the full design).
// Event fires run under the scheduler's FrameArena, so coroutine frames
// spawned inside events recycle through pooled memory instead of the
// global heap (see arena.h).
#pragma once

#include <cstdint>
#include <limits>
#include <utility>

#include "common/error.h"
#include "common/units.h"
#include "sim/arena.h"
#include "sim/event_fn.h"
#include "sim/indexed_queue.h"

namespace tca {
class Trace;
}  // namespace tca

namespace tca::sim {

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

  /// Runs the earliest pending event. Returns false if the queue is empty.
  bool step() {
    ArenaScope scope(&arena_);
    return fire_next(kNoLimit);
  }

  /// Runs events until the queue is empty.
  void run() {
    // One arena scope spans the whole drain: two thread-local writes total
    // instead of two per event (step() keeps the per-event scope).
    ArenaScope scope(&arena_);
    while (fire_next(kNoLimit)) {
    }
  }

  /// Runs all events with time <= `t`, then advances now to `t`.
  void run_until(TimePs t);

  /// Runs all events within the next `duration` of simulated time.
  void run_for(TimePs duration) { run_until(now_ + duration); }

  [[nodiscard]] bool empty() const { return queue_.empty(); }

  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }

  /// The frame arena (coroutine frames and EventFn heap fallbacks allocated
  /// during event execution recycle through it).
  [[nodiscard]] FrameArena& arena() { return arena_; }

  /// Attaches the caller-owned trace this simulation records into, which
  /// must outlive its events; null (the default) turns tracing off.
  /// Recording never schedules an event, so tracing moves no result.
  void set_trace(Trace* trace) { trace_ = trace; }
  [[nodiscard]] Trace* trace() const { return trace_; }

 private:
  static constexpr TimePs kNoLimit = std::numeric_limits<TimePs>::max();

  /// Fires the earliest live event iff its time <= `limit`. The caller must
  /// hold an ArenaScope on the scheduler's arena.
  bool fire_next(TimePs limit) {
    IndexedQueue::Key k;
    if (!queue_.peek(now_, &k)) return false;
    if (k.time > limit) return false;
    TCA_ASSERT(k.time >= now_);
    EventFn fn;
    queue_.pop_min(&fn);
    now_ = k.time;
    ++processed_;
    fn();
    return true;
  }

  TimePs now_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t seq_ = 0;

  // The arena is declared before the queue so pending EventFns (whose
  // heap-fallback captures may live in the arena) are destroyed while the
  // arena is still alive.
  FrameArena arena_;
  IndexedQueue queue_;
  Trace* trace_ = nullptr;
};

}  // namespace tca::sim
