// Unit tests for the discrete-event core: Scheduler, coroutine Tasks,
// Trigger and Semaphore.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "sim/scheduler.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace tca::sim {
namespace {

using units::ns;
using units::us;

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(ns(30), [&] { order.push_back(3); });
  sched.schedule_at(ns(10), [&] { order.push_back(1); });
  sched.schedule_at(ns(20), [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), ns(30));
  EXPECT_EQ(sched.events_processed(), 3u);
}

TEST(Scheduler, SameTimeIsFifo) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.schedule_at(ns(10), [&order, i] { order.push_back(i); });
  }
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, ScheduleAfterIsRelative) {
  Scheduler sched;
  TimePs fired_at = -1;
  sched.schedule_at(ns(100), [&] {
    sched.schedule_after(ns(50), [&] { fired_at = sched.now(); });
  });
  sched.run();
  EXPECT_EQ(fired_at, ns(150));
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler sched;
  bool ran = false;
  auto id = sched.schedule_at(ns(10), [&] { ran = true; });
  EXPECT_TRUE(sched.cancel(id));
  EXPECT_FALSE(sched.cancel(id));  // double-cancel rejected
  sched.run();
  EXPECT_FALSE(ran);
}

TEST(Scheduler, CancelUnknownIdRejected) {
  Scheduler sched;
  EXPECT_FALSE(sched.cancel(Scheduler::kInvalidEvent));
  EXPECT_FALSE(sched.cancel(9999));
}

TEST(Scheduler, RunUntilAdvancesTimeWithoutEvents) {
  Scheduler sched;
  sched.run_until(us(5));
  EXPECT_EQ(sched.now(), us(5));
}

TEST(Scheduler, RunUntilStopsAtBoundary) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_at(ns(10), [&] { ++fired; });
  sched.schedule_at(ns(20), [&] { ++fired; });
  sched.schedule_at(ns(30), [&] { ++fired; });
  sched.run_until(ns(20));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sched.now(), ns(20));
  sched.run();
  EXPECT_EQ(fired, 3);
}

TEST(Scheduler, StepReturnsFalseWhenEmpty) {
  Scheduler sched;
  EXPECT_FALSE(sched.step());
  sched.schedule_at(0, [] {});
  EXPECT_TRUE(sched.step());
  EXPECT_FALSE(sched.step());
}

TEST(Scheduler, EventsScheduledDuringRunExecute) {
  Scheduler sched;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) sched.schedule_after(ns(1), recurse);
  };
  sched.schedule_at(0, recurse);
  sched.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sched.now(), ns(9));
}

TEST(Scheduler, CancelledHeadDoesNotBlockRunUntil) {
  Scheduler sched;
  int fired = 0;
  auto id = sched.schedule_at(ns(10), [&] { ++fired; });
  sched.schedule_at(ns(20), [&] { ++fired; });
  ASSERT_TRUE(sched.cancel(id));
  sched.run_until(ns(15));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sched.now(), ns(15));
  sched.run();
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, EmptyReflectsCancellations) {
  Scheduler sched;
  EXPECT_TRUE(sched.empty());
  auto id = sched.schedule_at(ns(5), [] {});
  EXPECT_FALSE(sched.empty());
  sched.cancel(id);
  EXPECT_TRUE(sched.empty());
}

TEST(Scheduler, FireOrderSurvivesCancelHeavyCompaction) {
  // Cancel-heavy churn — watchdogs armed and cancelled from inside running
  // callbacks, the shape DMA chain timeouts produce — drives thousands of
  // compact() sweeps. Regression: the in-place heap rebuild used to skip
  // the last internal node whenever the survivor count was 2 or 3 mod 4,
  // and one of those skipped nodes eventually surfaced as simulated time
  // running backwards. Bulk cancel-then-drain self-heals (the damaged
  // node's children sit at the array tail, which refills the root first),
  // so the churn must interleave with draining; this seed fails the old
  // rebuild within ~200k ticks.
  Rng rng(8 * 0x9e3779b97f4a7c15ull);
  Scheduler sched;
  std::vector<Scheduler::EventId> watchdogs;
  TimePs last_fired = 0;
  std::uint64_t budget = 200000;
  std::function<void()> tick = [&] {
    ASSERT_GE(sched.now(), last_fired);
    last_fired = sched.now();
    if (budget-- == 0) return;
    while (watchdogs.size() > 8) {  // most watchdogs "complete": cancel
      std::size_t k = rng.next_below(watchdogs.size());
      sched.cancel(watchdogs[k]);
      watchdogs[k] = watchdogs.back();
      watchdogs.pop_back();
    }
    const std::uint64_t burst = 8 + rng.next_below(56);
    for (std::uint64_t i = 0; i < burst; ++i) {
      const TimePs t =
          sched.now() + ns(1 + static_cast<TimePs>(rng.next_below(5000)));
      watchdogs.push_back(sched.schedule_at(t, [] {}));
    }
    sched.schedule_after(ns(1 + static_cast<TimePs>(rng.next_below(40))),
                         tick);
  };
  sched.schedule_at(0, tick);
  sched.run();
  EXPECT_EQ(budget, std::numeric_limits<std::uint64_t>::max());
}

// --- Coroutine tasks -------------------------------------------------------

Task<> wait_twice(Scheduler& sched, std::vector<TimePs>& log) {
  co_await Delay(sched, ns(10));
  log.push_back(sched.now());
  co_await Delay(sched, ns(15));
  log.push_back(sched.now());
}

TEST(Task, DelaysAdvanceSimTime) {
  Scheduler sched;
  std::vector<TimePs> log;
  Task<> t = wait_twice(sched, log);
  EXPECT_FALSE(t.done());
  sched.run();
  EXPECT_TRUE(t.done());
  EXPECT_EQ(log, (std::vector<TimePs>{ns(10), ns(25)}));
}

Task<int> compute_after(Scheduler& sched, TimePs delay, int value) {
  co_await Delay(sched, delay);
  co_return value;
}

TEST(Task, ReturnsValue) {
  Scheduler sched;
  Task<int> t = compute_after(sched, ns(5), 42);
  sched.run();
  ASSERT_TRUE(t.done());
  EXPECT_EQ(t.result(), 42);
}

Task<int> awaits_subtask(Scheduler& sched) {
  int a = co_await compute_after(sched, ns(10), 7);
  int b = co_await compute_after(sched, ns(10), 35);
  co_return a + b;
}

TEST(Task, AwaitingSubtasksComposes) {
  Scheduler sched;
  Task<int> t = awaits_subtask(sched);
  sched.run();
  EXPECT_EQ(t.result(), 42);
  EXPECT_EQ(sched.now(), ns(20));
}

TEST(Task, AwaitingCompletedTaskResumesImmediately) {
  Scheduler sched;
  auto outer = [](Scheduler& s) -> Task<int> {
    Task<int> inner = compute_after(s, ns(1), 5);
    co_await Delay(s, ns(100));  // inner finishes long before
    int v = co_await std::move(inner);
    co_return v;
  };
  Task<int> t = outer(sched);
  sched.run();
  EXPECT_EQ(t.result(), 5);
}

TEST(Task, SpawnDetachesAndRuns) {
  Scheduler sched;
  bool done = false;
  spawn([](Scheduler& s, bool& flag) -> Task<> {
    co_await Delay(s, ns(50));
    flag = true;
  }(sched, done));
  sched.run();
  EXPECT_TRUE(done);
}

TEST(Task, EagerStartRunsToFirstSuspension) {
  Scheduler sched;
  bool started = false;
  auto t = [](Scheduler& s, bool& flag) -> Task<> {
    flag = true;
    co_await Delay(s, ns(1));
  }(sched, started);
  EXPECT_TRUE(started);  // body ran before scheduler did
  sched.run();
}

// --- Trigger ---------------------------------------------------------------

TEST(Trigger, WaitersResumeOnFire) {
  Scheduler sched;
  Trigger trig(sched);
  std::vector<TimePs> woke;
  for (int i = 0; i < 3; ++i) {
    spawn([](Trigger& t, Scheduler& s, std::vector<TimePs>& log) -> Task<> {
      co_await t.wait();
      log.push_back(s.now());
    }(trig, sched, woke));
  }
  sched.schedule_at(ns(100), [&] { trig.fire(); });
  sched.run();
  EXPECT_EQ(woke, (std::vector<TimePs>{ns(100), ns(100), ns(100)}));
}

TEST(Trigger, FiredTriggerDoesNotBlock) {
  Scheduler sched;
  Trigger trig(sched);
  trig.fire();
  TimePs woke = -1;
  spawn([](Trigger& t, Scheduler& s, TimePs& at) -> Task<> {
    co_await t.wait();
    at = s.now();
  }(trig, sched, woke));
  sched.run();
  EXPECT_EQ(woke, 0);
}

TEST(Trigger, ResetRearms) {
  Scheduler sched;
  Trigger trig(sched);
  trig.fire();
  EXPECT_TRUE(trig.fired());
  trig.reset();
  EXPECT_FALSE(trig.fired());
  int wakes = 0;
  spawn([](Trigger& t, int& n) -> Task<> {
    co_await t.wait();
    ++n;
  }(trig, wakes));
  sched.run();
  EXPECT_EQ(wakes, 0);  // still waiting
  trig.fire();
  sched.run();
  EXPECT_EQ(wakes, 1);
}

TEST(Trigger, PulseWakesWithoutLatching) {
  Scheduler sched;
  Trigger trig(sched);
  int wakes = 0;
  spawn([](Trigger& t, int& n) -> Task<> {
    co_await t.wait();
    ++n;
    co_await t.wait();  // must wait again: pulse does not latch
    ++n;
  }(trig, wakes));
  trig.pulse();
  sched.run();
  EXPECT_EQ(wakes, 1);
  trig.pulse();
  sched.run();
  EXPECT_EQ(wakes, 2);
  EXPECT_FALSE(trig.fired());
}

// --- Barrier ---------------------------------------------------------------

TEST(Barrier, ReleasesOnlyWhenAllArrive) {
  Scheduler sched;
  Barrier barrier(sched, 3);
  std::vector<TimePs> exits;
  for (int i = 0; i < 3; ++i) {
    spawn([](Scheduler& s, Barrier& b, int delay,
             std::vector<TimePs>& log) -> Task<> {
      co_await Delay(s, ns(delay));
      co_await b.arrive();
      log.push_back(s.now());
    }(sched, barrier, (i + 1) * 100, exits));
  }
  sched.run();
  ASSERT_EQ(exits.size(), 3u);
  for (TimePs t : exits) EXPECT_GE(t, ns(300));  // last arrival gates all
}

TEST(Barrier, ReusableAcrossRounds) {
  Scheduler sched;
  Barrier barrier(sched, 2);
  int rounds_done = 0;
  for (int i = 0; i < 2; ++i) {
    spawn([](Scheduler& s, Barrier& b, int id, int& done) -> Task<> {
      for (int round = 0; round < 5; ++round) {
        co_await Delay(s, ns(10 * (id + 1)));
        co_await b.arrive();
      }
      ++done;
    }(sched, barrier, i, rounds_done));
  }
  sched.run();
  EXPECT_EQ(rounds_done, 2);
  EXPECT_EQ(barrier.waiting(), 0u);
}

// --- Task exceptions ---------------------------------------------------------

Task<int> throws_after_delay(Scheduler& sched) {
  co_await Delay(sched, ns(5));
  throw std::runtime_error("engine fault");
  co_return 0;  // unreachable
}

TEST(Task, ExceptionPropagatesToResult) {
  Scheduler sched;
  Task<int> t = throws_after_delay(sched);
  sched.run();
  ASSERT_TRUE(t.done());
  EXPECT_THROW((void)t.result(), std::runtime_error);
}

TEST(Task, ExceptionPropagatesThroughAwait) {
  Scheduler sched;
  auto outer = [](Scheduler& s) -> Task<int> {
    try {
      co_return co_await throws_after_delay(s);
    } catch (const std::runtime_error&) {
      co_return -1;
    }
  };
  Task<int> t = outer(sched);
  sched.run();
  EXPECT_EQ(t.result(), -1);
}

// --- Semaphore ---------------------------------------------------------------

TEST(Semaphore, LimitsConcurrency) {
  Scheduler sched;
  Semaphore sem(sched, 2);
  int active = 0, peak = 0, completed = 0;
  for (int i = 0; i < 6; ++i) {
    spawn([](Scheduler& s, Semaphore& gate, int& act, int& pk,
             int& done) -> Task<> {
      co_await gate.acquire();
      ++act;
      pk = std::max(pk, act);
      co_await Delay(s, ns(10));
      --act;
      ++done;
      gate.release();
    }(sched, sem, active, peak, completed));
  }
  sched.run();
  EXPECT_EQ(completed, 6);
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(sem.available(), 2);
}

TEST(Semaphore, FifoFairness) {
  Scheduler sched;
  Semaphore sem(sched, 0);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    spawn([](Semaphore& gate, std::vector<int>& log, int id) -> Task<> {
      co_await gate.acquire();
      log.push_back(id);
      gate.release();
    }(sem, order, i));
  }
  sched.run();
  EXPECT_TRUE(order.empty());
  sem.release();
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Semaphore, ReleaseManyWakesMany) {
  Scheduler sched;
  Semaphore sem(sched, 0);
  int woke = 0;
  for (int i = 0; i < 3; ++i) {
    spawn([](Semaphore& gate, int& n) -> Task<> {
      co_await gate.acquire();
      ++n;
    }(sem, woke));
  }
  sem.release(3);
  sched.run();
  EXPECT_EQ(woke, 3);
  EXPECT_EQ(sem.available(), 0);
}

}  // namespace
}  // namespace tca::sim
