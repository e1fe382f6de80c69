// Unit tests for the discrete-event core: Scheduler, coroutine Tasks,
// Trigger, Semaphore and PollUntil.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "sim/ring.h"
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

// --- Ring: the event path's FIFO ---------------------------------------------

/// Contents front to back.
template <typename T>
std::vector<T> contents(const Ring<T>& ring) {
  return std::vector<T>(ring.begin(), ring.end());
}

TEST(Ring, AllocatesNothingUntilTheFirstPush) {
  Ring<int> ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), 0u);
  ring.push_back(1);
  EXPECT_EQ(ring.capacity(), 8u);
}

TEST(Ring, PushFrontAfterAWrapKeepsOrder) {
  Ring<int> ring;
  for (int i = 0; i < 6; ++i) ring.push_back(i);
  for (int i = 0; i < 4; ++i) ring.pop_front();
  for (int i = 6; i < 10; ++i) ring.push_back(i);  // tail wraps past slot 7
  ring.push_front(3);  // requeue at the head, as an LCRC replay does
  ring.push_front(2);  // fills the ring exactly: no growth
  EXPECT_EQ(ring.capacity(), 8u);
  EXPECT_EQ(contents(ring), (std::vector<int>{2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(ring.front(), 2);
  EXPECT_EQ(ring.back(), 9);
}

TEST(Ring, PopBackTakesTheNewest) {
  Ring<int> ring;
  for (int i = 1; i <= 5; ++i) ring.push_back(i);
  ring.pop_back();
  ring.pop_back();
  EXPECT_EQ(ring.back(), 3);
  EXPECT_EQ(ring.front(), 1);
  EXPECT_EQ(ring.size(), 3u);
}

TEST(Ring, GrowthFromAWrappedStateKeepsOrder) {
  Ring<int> ring;
  for (int i = 0; i < 8; ++i) ring.push_back(i);
  for (int i = 0; i < 3; ++i) ring.pop_front();
  for (int i = 8; i < 11; ++i) ring.push_back(i);  // full and wrapped
  ring.push_back(11);                              // doubles
  ring.push_front(2);
  EXPECT_EQ(ring.capacity(), 16u);
  std::vector<int> want;
  for (int i = 2; i < 12; ++i) want.push_back(i);
  EXPECT_EQ(contents(ring), want);
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(ring[i], want[i]);
}

TEST(Ring, IterationRunsFrontToBackAndCanMutate) {
  Ring<int> ring;
  for (int i = 0; i < 7; ++i) ring.push_back(i);
  for (int i = 0; i < 5; ++i) ring.pop_front();
  for (int i = 7; i < 12; ++i) ring.push_back(i);
  for (int& v : ring) v *= 10;
  const Ring<int>& view = ring;
  EXPECT_EQ(contents(view), (std::vector<int>{50, 60, 70, 80, 90, 100, 110}));
}

TEST(Ring, PopsAndClearDestroyTheirElementsAtOnce) {
  auto token = std::make_shared<int>(0);
  {
    Ring<std::shared_ptr<int>> ring;
    for (int i = 0; i < 4; ++i) ring.push_back(token);
    EXPECT_EQ(token.use_count(), 5);
    ring.pop_front();
    ring.pop_back();
    EXPECT_EQ(token.use_count(), 3);
    ring.clear();
    EXPECT_EQ(token.use_count(), 1);
    ring.push_back(token);
  }
  EXPECT_EQ(token.use_count(), 1);  // the destructor released the last one
}

// --- PollUntil: key for key the Delay loop it replaces ---------------------
//
// Each scenario runs twice, once with PollUntil and once with the reference
// loop `while (!ready()) co_await Delay(sched, period);`, and the two runs
// must agree on every recorded step. A tick filed at any other (time, seq)
// than that loop's Delay event shows up as a different resume time, test
// count or order against same-picosecond events.

constexpr TimePs kPeriod = ns(50);

/// What one waiter did.
struct PollRecord {
  TimePs resumed_at = -1;
  int tests = 0;
  bool timed_out = false;
  bool operator==(const PollRecord&) const = default;
};

/// Waits until `flag` is set or `deadline` (0 = none) passes, the way
/// Runtime::wait_flag_ge does, and logs "waiter" on resuming.
Task<> wait_for(Scheduler& sched, bool use_poller, bool& flag, TimePs deadline,
                PollRecord& rec, std::vector<std::string>& log) {
  auto ready = [&] {
    ++rec.tests;
    return flag || (deadline > 0 && sched.now() >= deadline);
  };
  if (use_poller) {
    co_await PollUntil(sched, kPeriod, ready);
  } else {
    while (!ready()) co_await Delay(sched, kPeriod);
  }
  rec.resumed_at = sched.now();
  rec.timed_out = !flag;
  log.push_back("waiter");
}

/// The flag lands at 120 ns, between the ticks at 100 and 150 ns. Two
/// competitors are due at the success tick: one filed at 100 ns by an event
/// that fires before the 100 ns tick, one filed at 100 ns by an event that
/// fires after it.
struct FlagScenario {
  PollRecord rec;
  std::vector<std::string> log;
  std::uint64_t events = 0;

  explicit FlagScenario(bool use_poller, TimePs deadline = 0,
                        TimePs flag_at = ns(120)) {
    Scheduler sched;
    bool flag = false;
    if (flag_at >= 0) sched.schedule_at(flag_at, [&] { flag = true; });
    sched.schedule_at(ns(100), [&] {
      sched.schedule_at(ns(150), [&] { log.push_back("filed before tick"); });
    });
    Task<> waiter = wait_for(sched, use_poller, flag, deadline, rec, log);
    // Filed after the 50 ns tick keyed the 100 ns one, so it fires after it.
    sched.schedule_at(ns(60), [&] {
      sched.schedule_at(ns(100), [&] {
        sched.schedule_at(ns(150), [&] { log.push_back("filed after tick"); });
      });
    });
    sched.run();
    EXPECT_TRUE(waiter.done());
    events = sched.events_processed();
  }
};

TEST(PollUntil, ResumesAtTheDelayLoopsPicosecondAfterAsManyTests) {
  const FlagScenario loop(false);
  const FlagScenario poll(true);
  EXPECT_EQ(poll.rec, loop.rec);
  EXPECT_EQ(poll.rec.resumed_at, ns(150));
  EXPECT_EQ(poll.rec.tests, 4);  // inline, then the 50, 100 and 150 ns ticks
  EXPECT_FALSE(poll.rec.timed_out);
  // The three ticks were queue events of the loop and are none of PollUntil.
  EXPECT_EQ(poll.events, loop.events - 3);
}

TEST(PollUntil, OrdersLikeTheDelayLoopAgainstSamePicosecondEvents) {
  const FlagScenario loop(false);
  const FlagScenario poll(true);
  const std::vector<std::string> want{"filed before tick", "waiter",
                                      "filed after tick"};
  EXPECT_EQ(loop.log, want);
  EXPECT_EQ(poll.log, want);
}

TEST(PollUntil, TimesOutOnTheDelayLoopsTick) {
  const FlagScenario loop(false, ns(130), /*flag_at=*/-1);
  const FlagScenario poll(true, ns(130), /*flag_at=*/-1);
  EXPECT_EQ(poll.rec, loop.rec);
  EXPECT_EQ(poll.rec.resumed_at, ns(150));  // first tick at or past 130 ns
  EXPECT_TRUE(poll.rec.timed_out);
  EXPECT_EQ(poll.log, loop.log);
}

TEST(PollUntil, ReadyConditionCompletesWithoutSuspending) {
  Scheduler sched;
  PollRecord rec;
  std::vector<std::string> log;
  bool flag = true;
  Task<> waiter = wait_for(sched, true, flag, 0, rec, log);
  EXPECT_TRUE(waiter.done());
  EXPECT_EQ(rec.tests, 1);
  EXPECT_EQ(rec.resumed_at, 0);
  EXPECT_TRUE(sched.empty());
}

TEST(PollUntil, RunUntilFiresNoTickPastItsLimit) {
  Scheduler sched;
  PollRecord rec;
  std::vector<std::string> log;
  bool flag = false;
  // The deadline only bounds the test if ticks ever run past a limit.
  Task<> waiter = wait_for(sched, true, flag, ns(400), rec, log);
  sched.run_until(ns(100));  // a tick due at the limit fires
  EXPECT_EQ(rec.tests, 3);
  sched.run_until(ns(149));
  EXPECT_EQ(rec.tests, 3);
  EXPECT_EQ(sched.now(), ns(149));
  flag = true;
  sched.run_until(ns(150));
  EXPECT_EQ(rec.tests, 4);
  EXPECT_EQ(rec.resumed_at, ns(150));
  EXPECT_TRUE(waiter.done());
}

TEST(PollUntil, ArmedPollerKeepsTheSchedulerNonEmpty) {
  Scheduler sched;
  PollRecord rec;
  std::vector<std::string> log;
  bool flag = false;
  Task<> waiter = wait_for(sched, true, flag, 0, rec, log);
  EXPECT_FALSE(sched.empty());
  EXPECT_TRUE(sched.step());  // a failing tick
  EXPECT_EQ(sched.now(), kPeriod);
  EXPECT_FALSE(sched.empty());
  flag = true;
  EXPECT_TRUE(sched.step());  // the passing tick
  EXPECT_TRUE(waiter.done());
  EXPECT_TRUE(sched.empty());
  EXPECT_FALSE(sched.step());
  EXPECT_EQ(sched.events_processed(), 0u);
}

TEST(PollUntil, DestroyingAParkedWaiterDisarmsIt) {
  Scheduler sched;
  PollRecord kept, dropped;
  std::vector<std::string> log;
  bool flag = false;
  Task<> keeper = wait_for(sched, true, flag, ns(400), kept, log);
  {
    Task<> parked = wait_for(sched, true, flag, ns(400), dropped, log);
    sched.run_until(ns(60));
  }
  sched.schedule_at(ns(120), [&] { flag = true; });
  sched.run();
  EXPECT_EQ(dropped.tests, 2);  // inline and the 50 ns tick, nothing after
  EXPECT_EQ(dropped.resumed_at, -1);
  EXPECT_EQ(kept.resumed_at, ns(150));
  EXPECT_TRUE(keeper.done());
  EXPECT_TRUE(sched.empty());
}

TEST(PollUntil, DestroyingAWaiterInTheMiddleOfTheRingKeepsTheRestInOrder) {
  // Five waiters start 10 ns apart, so their ticks interleave. At 95 ns the
  // armed pollers' next ticks are 100, 110, 120, 130 and 140 ns (waiters 0
  // to 4), and waiter 2 goes away from the middle, two pollers behind it.
  constexpr std::size_t kWaiters = 5;
  Scheduler sched;
  std::vector<PollRecord> recs(kWaiters);
  std::vector<std::string> log;
  std::vector<Task<>> waiters(kWaiters);
  bool flag = false;
  for (std::size_t i = 0; i < kWaiters; ++i) {
    sched.schedule_at(ns(10 * static_cast<std::int64_t>(i)), [&, i] {
      waiters[i] = wait_for(sched, true, flag, 0, recs[i], log);
    });
  }
  sched.run_until(ns(95));
  waiters[2] = Task<>();
  sched.schedule_at(ns(200), [&] { flag = true; });
  sched.run();
  // Waiter 2 tested inline at 20 ns and at its 70 ns tick, and no more.
  const TimePs resumed[] = {ns(200), ns(210), -1, ns(230), ns(240)};
  for (std::size_t i = 0; i < kWaiters; ++i) {
    EXPECT_EQ(recs[i].resumed_at, resumed[i]) << "waiter " << i;
    EXPECT_EQ(recs[i].tests, i == 2 ? 2 : 5) << "waiter " << i;
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_TRUE(sched.empty());
}

/// A waiter for scrambled_waiters(): polls its own flag with its own
/// period. Each test also files a probe due with the next tick, which the
/// Delay loop files before that tick's event, so it must run first.
Task<> wait_and_log(Scheduler& sched, bool use_poller, TimePs period,
                    bool& flag, int id, std::vector<std::string>& log) {
  auto ready = [&] {
    const std::string tag = std::to_string(id) + " @" +
                            std::to_string(sched.now());
    log.push_back("test " + tag);
    sched.schedule_after(period,
                         [&log, t = tag] { log.push_back("probe " + t); });
    return flag;
  };
  if (use_poller) {
    co_await PollUntil(sched, period, ready);
  } else {
    while (!ready()) co_await Delay(sched, period);
  }
  log.push_back("resume " + std::to_string(id));
}

/// Many waiters with clashing periods, flags set by random events, and
/// random zero-delay chatter: the whole log, every test and resume in
/// order, must match the Delay loops'.
std::vector<std::string> scrambled_waiters(bool use_poller, std::uint64_t seed,
                                           std::size_t waiter_count) {
  Scheduler sched;
  Rng rng(seed);
  std::vector<std::string> log;
  std::deque<bool> flags(waiter_count, false);
  std::vector<Task<>> waiters;
  for (std::size_t i = 0; i < waiter_count; ++i) {
    const TimePs at = ns(static_cast<std::int64_t>(rng.next_below(400)));
    const TimePs period = ns(static_cast<std::int64_t>(rng.next_in(1, 3)) * 25);
    sched.schedule_at(at, [&, i, period] {
      waiters.push_back(wait_and_log(sched, use_poller, period, flags[i],
                                     static_cast<int>(i), log));
    });
    sched.schedule_at(ns(static_cast<std::int64_t>(rng.next_below(2000))),
                      [&, i] { flags[i] = true; });
  }
  for (int e = 0; e < 200; ++e) {
    sched.schedule_at(ns(static_cast<std::int64_t>(rng.next_below(2000))),
                      [&, e] {
                        sched.schedule_after(0, [&, e] {
                          log.push_back("chatter " + std::to_string(e));
                        });
                      });
  }
  sched.run();
  return log;
}

TEST(PollUntil, ManyWaitersMatchTheDelayLoopsStepForStep) {
  // 12 waiters, and 300: with periods of 25, 50 and 75 ns, a re-keyed tick
  // often sorts before armed ones, so filing into the long ring walks back.
  for (const std::size_t waiters : {std::size_t{12}, std::size_t{300}}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      EXPECT_EQ(scrambled_waiters(true, seed, waiters),
                scrambled_waiters(false, seed, waiters))
          << waiters << " waiters, seed " << seed;
    }
  }
}

// --- The wake lane: key for key the zero-delay events it replaces ----------

/// The wake mechanism the lane replaced: every wake files a zero-delay
/// queue event. Stands in for Trigger (pulse() wakes every waiter) and for a
/// Semaphore whose releases each find a parked waiter (release() wakes the
/// oldest).
class QueueWaker {
 public:
  explicit QueueWaker(Scheduler& sched, std::int64_t /*permits*/ = 0)
      : sched_(sched) {}

  auto wait() {
    struct Awaiter {
      QueueWaker& waker;
      bool await_ready() const { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        waker.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }
  auto acquire() { return wait(); }

  void pulse() {
    while (!waiters_.empty()) release();
  }
  void release() {
    ASSERT_FALSE(waiters_.empty());
    const std::coroutine_handle<> h = waiters_.front();
    waiters_.pop_front();
    sched_.schedule_after(0, [h] { h.resume(); });
  }

 private:
  Scheduler& sched_;
  std::deque<std::coroutine_handle<>> waiters_;
};

struct MergeRun {
  std::vector<std::string> log;
  std::uint64_t events = 0;
};

/// Trigger pulses, Semaphore releases, zero-delay events, calendar events
/// and a passing poll tick, all at 100 ns, woken either through the lane
/// (Trigger, Semaphore) or through the queue (QueueWaker for both).
template <typename Trig, typename Sem>
MergeRun same_picosecond_merge() {
  constexpr TimePs kAt = ns(100);
  Scheduler sched;
  MergeRun run;
  auto& log = run.log;
  Trig trig(sched);
  Sem sem(sched, 0);
  std::vector<Task<>> tasks;

  auto trig_waiter = [](Trig& t, std::vector<std::string>& out,
                        int id) -> Task<> {
    co_await t.wait();
    out.push_back("trig " + std::to_string(id));
    co_await t.wait();
    out.push_back("trig again " + std::to_string(id));
  };
  auto sem_waiter = [](Scheduler& s, Trig& t, Sem& gate,
                       std::vector<std::string>& out, int id) -> Task<> {
    co_await gate.acquire();
    out.push_back("sem " + std::to_string(id));
    // A woken waiter files a zero-delay event and, as sem 0, wakes the
    // trigger's waiters behind it.
    s.schedule_after(0, [&out, id] {
      out.push_back("zero from sem " + std::to_string(id));
    });
    if (id == 0) t.pulse();
  };
  auto calendar = [&](const char* name) {
    return [&, name] {
      log.push_back(name);
      trig.pulse();
      sem.release();
      sched.schedule_after(0, [&log, name] {
        log.push_back(std::string("zero ") + name);
      });
    };
  };

  for (int i = 0; i < 2; ++i) tasks.push_back(trig_waiter(trig, log, i));
  for (int i = 0; i < 3; ++i) {
    tasks.push_back(sem_waiter(sched, trig, sem, log, i));
  }
  // "early" and "plain" are keyed before the 50 ns tick re-keys the
  // poller, so before its tick at 100 ns.
  sched.schedule_at(kAt, calendar("early"));
  tasks.push_back([](Scheduler& s, Trig& t, Sem& gate,
                     std::vector<std::string>& out) -> Task<> {
    co_await PollUntil(s, ns(50), [&] {
      out.push_back("tick @" + std::to_string(s.now()));
      return s.now() >= ns(100);
    });
    out.push_back("poller");
    gate.release();
    t.pulse();
  }(sched, trig, sem, log));
  sched.schedule_at(kAt, [&] { log.push_back("plain"); });
  // Filed after the 50 ns tick re-keyed the poller, so after its tick.
  sched.schedule_at(ns(60), [&] { sched.schedule_at(kAt, calendar("late")); });
  sched.run();
  for (const Task<>& t : tasks) EXPECT_TRUE(t.done());
  EXPECT_EQ(sched.now(), kAt);
  run.events = sched.events_processed();
  return run;
}

TEST(Scheduler, SamePicosecondWakesFireWhereZeroDelayEventsWould) {
  const MergeRun lane = same_picosecond_merge<Trigger, Semaphore>();
  const MergeRun queue = same_picosecond_merge<QueueWaker, QueueWaker>();
  EXPECT_EQ(lane.log, queue.log);
  // A wake counts as the queue event it replaces.
  EXPECT_EQ(lane.events, queue.events);
  // Every wake at 100 ns is filed after the tick was keyed (at 50 ns), so
  // the tick fires first; wakes and zero-delay events then interleave in
  // filing order.
  const std::vector<std::string> want{
      "tick @0",         "tick @50000",     "early",
      "plain",           "tick @100000",    "poller",
      "late",            "trig 0",          "trig 1",
      "sem 0",           "zero early",      "sem 1",
      "sem 2",           "zero late",       "zero from sem 0",
      "trig again 0",    "trig again 1",    "zero from sem 1",
      "zero from sem 2"};
  EXPECT_EQ(lane.log, want);
}

}  // namespace
}  // namespace tca::sim
