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
std::vector<std::string> scrambled_waiters(bool use_poller,
                                           std::uint64_t seed) {
  constexpr std::size_t kWaiters = 12;
  Scheduler sched;
  Rng rng(seed);
  std::vector<std::string> log;
  std::deque<bool> flags(kWaiters, false);
  std::vector<Task<>> waiters;
  for (std::size_t i = 0; i < kWaiters; ++i) {
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
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    EXPECT_EQ(scrambled_waiters(true, seed), scrambled_waiters(false, seed))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace tca::sim
