// Discrete-event scheduler.
//
// Deterministic: events fire in (time, insertion-order) order, so two runs
// with the same inputs produce identical traces. All coroutine resumptions
// in the simulator are routed through this queue, which keeps call stacks
// shallow and event ordering well-defined even when a component fires a
// trigger from inside another component's callback.
//
// Three queue backends share the public API and the ordering contract:
//
//  * kIndexed (default): the IndexedQueue — one calendar ring of
//    (time, seq)-sorted bucket lists threaded through a slot pool of
//    allocation-free sim::EventFn, fronting a 4-ary far heap (see
//    indexed_queue.h for the full design). Event fires
//    run under the scheduler's FrameArena, so coroutine frames spawned
//    inside events recycle through pooled memory instead of the global
//    heap (see arena.h).
//  * kSharded: per-shard IndexedQueues + per-shard arenas behind a
//    ShardedEngine (see sharded.h). Merge mode (the default, what
//    TCA_SCHED_BASELINE=2 selects) executes the exact global (time, seq)
//    order of kIndexed single-threaded — byte-identical traces — with
//    per-shard locality; epoch mode (threads >= 1, explicit Config) runs
//    conservative lookahead windows in parallel for shard-confined
//    workloads. schedule_on()/schedule_on_after() tag events with a shard
//    (ignored by the other backends), and untagged schedules inherit the
//    currently executing shard.
//  * kBaseline: the seed design — std::priority_queue of (time, id,
//    std::function) plus an unordered_set of cancelled-id tombstones
//    checked on every pop. Kept as the A/B reference for bench_sim_core
//    and selectable via TCA_SCHED_BASELINE=1 so any workload can be
//    replayed on all backends; simulated results are identical by
//    construction.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <unordered_set>
#include <vector>

#include "common/error.h"
#include "common/log.h"
#include "common/units.h"
#include "sim/arena.h"
#include "sim/event_fn.h"
#include "sim/indexed_queue.h"
#include "sim/sharded.h"

namespace tca::sim {

class Scheduler {
 public:
  using EventId = std::uint64_t;
  static constexpr EventId kInvalidEvent = 0;

  /// Queue backend (see file comment). kBaseline exists for A/B performance
  /// comparison and regression hunting, not production use.
  enum class QueueImpl { kIndexed, kBaseline, kSharded };

  explicit Scheduler(QueueImpl impl = default_impl()) : impl_(impl) {
    if (impl_ == QueueImpl::kSharded) {
      sharded_ = std::make_unique<ShardedEngine>(ShardedEngine::env_config());
    }
  }

  /// Sharded backend with an explicit configuration (shard count, lookahead
  /// window, worker threads). The env-driven constructor above always picks
  /// merge mode; parallel epoch execution is opt-in through here.
  explicit Scheduler(const ShardedEngine::Config& cfg)
      : impl_(QueueImpl::kSharded),
        sharded_(std::make_unique<ShardedEngine>(cfg)) {}

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// kIndexed unless the TCA_SCHED_BASELINE environment variable says
  /// otherwise: "1" (or any other non-empty value but "0" and "2") selects
  /// kBaseline, "2" selects kSharded merge mode. Read once per process.
  static QueueImpl default_impl();

  [[nodiscard]] QueueImpl impl() const { return impl_; }

  /// Current simulated time. Inside an epoch-mode event this is the
  /// executing shard's local clock — exactly what relative delays must be
  /// measured against.
  [[nodiscard]] TimePs now() const {
    return impl_ == QueueImpl::kSharded ? sharded_->now() : now_;
  }

  /// Schedules `fn` at absolute time `t` (must be >= now). Returns an id
  /// usable with cancel(). Captures up to EventFn::kInlineBytes are stored
  /// without heap allocation, constructed directly in their slot. On the
  /// sharded backend the event lands on the currently executing shard.
  template <typename F>
  EventId schedule_at(TimePs t, F&& fn) {
    if (impl_ == QueueImpl::kSharded) {
      return sharded_->schedule(sharded_->current_shard(), t,
                                std::forward<F>(fn));
    }
    if (impl_ == QueueImpl::kBaseline) {
      if constexpr (std::is_copy_constructible_v<std::decay_t<F>>) {
        return schedule_baseline(t, std::function<void()>(std::forward<F>(fn)));
      } else {
        TCA_ASSERT(false && "baseline queue requires copyable callables");
      }
    }
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
    return schedule_at(now() + delay, std::forward<F>(fn));
  }

  /// Schedules `fn` at absolute time `t` on `shard` (sharded backend; the
  /// tag is ignored elsewhere, so components may tag unconditionally).
  /// Fabric code tags link-crossing events with the destination endpoint's
  /// shard — that affinity is what partitions the event space for the
  /// parallel backend.
  template <typename F>
  EventId schedule_on(std::uint32_t shard, TimePs t, F&& fn) {
    if (impl_ == QueueImpl::kSharded) {
      return sharded_->schedule(shard, t, std::forward<F>(fn));
    }
    return schedule_at(t, std::forward<F>(fn));
  }

  template <typename F>
  EventId schedule_on_after(std::uint32_t shard, TimePs delay, F&& fn) {
    TCA_ASSERT(delay >= 0);
    return schedule_on(shard, now() + delay, std::forward<F>(fn));
  }

  /// Cancels a pending event. Returns false if it already ran, was already
  /// cancelled, or the id is unknown. O(1) on the indexed and sharded
  /// backends.
  bool cancel(EventId id) {
    if (impl_ == QueueImpl::kSharded) return sharded_->cancel(id);
    if (impl_ == QueueImpl::kBaseline) return cancel_baseline(id);
    const std::uint64_t lo = id & 0xffffffffu;
    if (lo == 0) return false;
    return queue_.cancel(IndexedQueue::Ref{
        static_cast<std::uint32_t>(lo - 1), static_cast<std::uint32_t>(id >> 32)});
  }

  /// Runs the earliest pending event. Returns false if the queue is empty.
  bool step() { return run_one(kNoLimit); }

  /// Runs events until the queue is empty.
  void run() {
    if (impl_ == QueueImpl::kSharded) {
      sharded_->run();
      return;
    }
    if (impl_ == QueueImpl::kIndexed) {
      // One arena scope spans the whole drain: two thread-local writes
      // total instead of two per event (step() keeps the per-event scope).
      ArenaScope scope(&arena_);
      while (fire_next_indexed(kNoLimit)) {
      }
      return;
    }
    while (run_one(kNoLimit)) {
    }
  }

  /// Runs all events with time <= `t`, then advances now to `t`.
  void run_until(TimePs t);

  /// Runs all events within the next `duration` of simulated time.
  void run_for(TimePs duration) { run_until(now() + duration); }

  [[nodiscard]] bool empty() const {
    switch (impl_) {
      case QueueImpl::kSharded:
        return sharded_->empty();
      case QueueImpl::kBaseline:
        return b_queue_.size() == b_cancelled_.size();
      case QueueImpl::kIndexed:
        break;
    }
    return queue_.empty();
  }

  [[nodiscard]] std::uint64_t events_processed() const {
    return impl_ == QueueImpl::kSharded ? sharded_->processed() : processed_;
  }

  /// The sharded engine, when active (tests/bench introspection: shard
  /// count, per-shard arenas and queues). Null on other backends.
  [[nodiscard]] ShardedEngine* sharded() { return sharded_.get(); }

  /// The indexed backend's frame arena (coroutine frames and EventFn heap
  /// fallbacks allocated during event execution recycle through it).
  [[nodiscard]] FrameArena& arena() { return arena_; }

 private:
  static constexpr TimePs kNoLimit = std::numeric_limits<TimePs>::max();

  /// Indexed drain step: fires the earliest live event iff its time <=
  /// `limit`. Same-timestamp events drain under one clock update; the Log
  /// timestamp only moves when simulated time does. The caller must hold
  /// an ArenaScope on the scheduler's arena (run()/run_until() hoist one
  /// scope around their drain loops; run_one_indexed opens a per-event
  /// one for step()).
  bool fire_next_indexed(TimePs limit) {
    IndexedQueue::Key k;
    if (!queue_.peek(now_, &k)) return false;
    if (k.time > limit) return false;
    TCA_ASSERT(k.time >= now_);
    EventFn fn;
    queue_.pop_min(&fn);
    if (k.time != now_) {
      now_ = k.time;
      Log::set_now(now_);
    }
    ++processed_;
    fn();
    return true;
  }

  bool run_one_indexed(TimePs limit) {
    ArenaScope scope(&arena_);
    return fire_next_indexed(limit);
  }

  // --- Baseline (seed) backend ---------------------------------------------

  struct BaselineEntry {
    TimePs time;
    EventId id;
    std::function<void()> fn;
  };
  struct BaselineLater {
    bool operator()(const BaselineEntry& a, const BaselineEntry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.id > b.id;  // FIFO among same-time events
    }
  };

  EventId schedule_baseline(TimePs t, std::function<void()> fn);
  bool cancel_baseline(EventId id);
  bool run_one_baseline(TimePs limit);

  // --- Shared drain loop ---------------------------------------------------

  /// The one drain loop: skips cancelled heads, then fires the earliest
  /// event iff its time <= `limit`. Returns false when nothing fired.
  bool run_one(TimePs limit) {
    switch (impl_) {
      case QueueImpl::kSharded:
        return sharded_->run_one(limit);
      case QueueImpl::kBaseline:
        return run_one_baseline(limit);
      case QueueImpl::kIndexed:
        break;
    }
    return run_one_indexed(limit);
  }

  QueueImpl impl_;
  TimePs now_ = 0;
  std::uint64_t processed_ = 0;

  // Indexed backend state. The arena is declared before the queue so
  // pending EventFns (whose heap-fallback captures may live in the arena)
  // are destroyed while the arena is still alive.
  FrameArena arena_;
  IndexedQueue queue_;
  std::uint64_t seq_ = 0;

  // Sharded backend.
  std::unique_ptr<ShardedEngine> sharded_;

  // Baseline backend state.
  EventId b_next_id_ = 1;
  std::priority_queue<BaselineEntry, std::vector<BaselineEntry>, BaselineLater>
      b_queue_;
  std::unordered_set<EventId> b_cancelled_;
};

}  // namespace tca::sim
