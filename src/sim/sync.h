// Synchronization primitives for simulated processes.
//
// Trigger, Barrier and Semaphore defer every resumption through the
// Scheduler's wake lane (never inline), so firing a trigger from inside
// another component's event keeps deterministic FIFO ordering and bounded
// stack depth. A wake is not a queue event: it fires at the key a
// zero-delay event filed at the same moment would have had. PollUntil
// resumes its waiter from a scheduler poll tick, which fires at the key the
// equivalent Delay event would have had.
#pragma once

#include <coroutine>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.h"
#include "sim/ring.h"
#include "sim/scheduler.h"
#include "sim/task.h"

namespace tca::sim {

/// A latching event: wait() suspends until fire(); once fired, waits complete
/// immediately until reset(). pulse() wakes current waiters without latching.
class Trigger {
 public:
  explicit Trigger(Scheduler& sched) : sched_(sched) {}
  Trigger(const Trigger&) = delete;
  Trigger& operator=(const Trigger&) = delete;

  [[nodiscard]] bool fired() const { return fired_; }
  [[nodiscard]] std::size_t waiter_count() const { return waiters_.size(); }

  /// Latches the trigger and wakes all waiters.
  void fire() {
    fired_ = true;
    wake_all();
  }

  /// Wakes current waiters without latching (edge-triggered notify).
  void pulse() { wake_all(); }

  void reset() { fired_ = false; }

  auto wait() {
    struct Awaiter {
      Trigger& trigger;
      bool await_ready() const { return trigger.fired_; }
      void await_suspend(std::coroutine_handle<> h) {
        trigger.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  void wake_all() {
    // Filing a wake resumes nothing (every waiter resumes later, from the
    // scheduler), so no waiter can wait() again during this loop, and the
    // list is cleared in place: its buffer is kept for the next wait().
    for (auto h : waiters_) sched_.wake(h);
    waiters_.clear();
  }

  Scheduler& sched_;
  bool fired_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// All-party rendezvous: the first n-1 arrivals suspend, the n-th wakes
/// everyone. Reusable across rounds (generation-free because resumption is
/// deferred through the scheduler and arrivals within one round cannot
/// interleave with the next round's arrivals of the same task).
class Barrier {
 public:
  Barrier(Scheduler& sched, std::size_t parties)
      : trigger_(sched), parties_(parties) {
    TCA_ASSERT(parties > 0);
  }
  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  [[nodiscard]] std::size_t parties() const { return parties_; }
  [[nodiscard]] std::size_t waiting() const { return arrived_; }

  /// Suspends until all parties have arrived.
  Task<> arrive() {
    if (++arrived_ == parties_) {
      arrived_ = 0;
      trigger_.pulse();
    } else {
      co_await trigger_.wait();
    }
  }

 private:
  Trigger trigger_;
  std::size_t parties_;
  std::size_t arrived_ = 0;
};

/// Counting semaphore; models finite resources such as DMA read tags or
/// receive-buffer slots. FIFO fairness: releases wake waiters in wait order.
class Semaphore {
 public:
  Semaphore(Scheduler& sched, std::int64_t initial)
      : sched_(sched), permits_(initial) {
    TCA_ASSERT(initial >= 0);
  }
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  [[nodiscard]] std::int64_t available() const { return permits_; }
  [[nodiscard]] std::size_t waiter_count() const { return waiters_.size(); }

  auto acquire() {
    struct Awaiter {
      Semaphore& sem;
      bool await_ready() const {
        return sem.permits_ > 0 && sem.waiters_.empty();
      }
      void await_suspend(std::coroutine_handle<> h) {
        sem.waiters_.push_back(h);
      }
      void await_resume() const {
        // A waiter resumed by release() was granted its permit there; the
        // fast path consumes it here.
        if (sem.granted_ > 0) {
          --sem.granted_;
        } else {
          TCA_ASSERT(sem.permits_ > 0);
          --sem.permits_;
        }
      }
    };
    return Awaiter{*this};
  }

  void release(std::int64_t n = 1) {
    TCA_ASSERT(n >= 0);
    permits_ += n;
    while (permits_ > 0 && !waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      --permits_;
      ++granted_;
      sched_.wake(h);
    }
  }

 private:
  Scheduler& sched_;
  std::int64_t permits_;
  std::int64_t granted_ = 0;  // permits pre-consumed for scheduled waiters
  Ring<std::coroutine_handle<>> waiters_;
};

/// Awaitable CPU poll loop: completes once `ready()` holds, testing it
/// inline first and then every `period` (> 0) of simulated time. It is
/// exactly the loop `while (!ready()) co_await Delay(sched, period);`:
/// each later test runs at the (time, seq) that loop's Delay event would
/// have had, as a scheduler poll tick rather than a queue event (see
/// scheduler.h), so replacing such a loop moves no simulated result.
/// `ready` must not arm or disarm a poller. Destroying the awaiting frame
/// while it is parked disarms the poller.
template <typename Ready>
class PollUntil : private PollWaiter {
 public:
  PollUntil(Scheduler& sched, TimePs period, Ready ready)
      : sched_(sched), period_(period), ready_(std::move(ready)) {
    test = [](PollWaiter& w) {
      return static_cast<PollUntil&>(w).ready_();
    };
  }
  PollUntil(const PollUntil&) = delete;
  PollUntil& operator=(const PollUntil&) = delete;
  ~PollUntil() { sched_.disarm_poll(*this); }

  bool await_ready() { return ready_(); }
  void await_suspend(std::coroutine_handle<> h) {
    waiter = h;
    sched_.arm_poll(*this, period_);
  }
  void await_resume() const noexcept {}

 private:
  Scheduler& sched_;
  TimePs period_;
  Ready ready_;
};

}  // namespace tca::sim
