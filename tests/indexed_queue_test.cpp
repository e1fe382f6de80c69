// Reference-model tests for sim::IndexedQueue, the storage engine behind
// sim::Scheduler.
//
// Every test drives the queue and a std::map keyed by (time, seq) side by
// side and requires each pop to return the map's first key. The scenarios
// aim at the places a calendar ring of intrusive lists can go wrong:
// zero-delay FIFO bursts, crowded buckets whose deep inserts spill to the
// far heap, events exactly at the ring horizon and 1 ps past it, cancels of
// a bucket's head, tail and middle and of the cached minimum, far timers and
// heap compaction, and grain adaptation in both directions. They run at the
// scheduler's default geometry and at a finer, shorter ring.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "sim/event_fn.h"
#include "sim/indexed_queue.h"

namespace tca::sim {
namespace {

using units::ms;
using units::ns;

struct Geometry {
  unsigned gran_log2;
  unsigned buckets_log2;
};

constexpr Geometry kSchedulerGeometry{10, 12};  // IndexedQueue defaults
constexpr Geometry kShardGeometry{8, 10};       // 256 ps x 1024 buckets
constexpr Geometry kTinyGeometry{0, 6};         // 64 ps horizon

/// The queue under test plus its reference model. Callers advance `now`
/// only to the time of the event just popped, or forward past nothing, as
/// the Scheduler does.
class Harness {
 public:
  explicit Harness(Geometry g) : q_(g.gran_log2, g.buckets_log2) {}

  IndexedQueue& queue() { return q_; }
  [[nodiscard]] TimePs now() const { return now_; }
  [[nodiscard]] std::size_t size() const { return model_.size(); }
  /// Events filed so far; their seqs are 0..filed()-1.
  [[nodiscard]] std::uint64_t filed() const { return next_seq_; }
  /// Seq of the earliest pending event.
  [[nodiscard]] std::uint64_t next_seq() const {
    return model_.begin()->first.second;
  }

  /// Files an event at absolute time `t`; returns its seq.
  std::uint64_t schedule(TimePs t) {
    const std::uint64_t seq = next_seq_++;
    const IndexedQueue::Ref ref =
        q_.schedule(t, now_, seq, [this, seq] { fired_ = seq; });
    model_.emplace(std::make_pair(t, seq), ref);
    refs_.push_back(ref);
    times_.push_back(t);
    return seq;
  }

  /// Cancels the event filed as `seq`; the queue must agree with the model
  /// on whether it was still pending.
  void cancel(std::uint64_t seq) {
    const bool pending = model_.erase(std::make_pair(times_[seq], seq)) == 1;
    EXPECT_EQ(q_.cancel(refs_[seq]), pending) << "seq " << seq;
    EXPECT_EQ(q_.live(), model_.size());
  }

  /// Cancels the model's `i`-th pending event in fire order.
  void cancel_nth(std::size_t i) {
    auto it = model_.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(i));
    cancel(it->first.second);
  }

  /// Peeks, optionally at a stale clock, and checks the model's minimum.
  void expect_min(TimePs peek_now) {
    IndexedQueue::Key k{};
    ASSERT_EQ(q_.peek(peek_now, &k), !model_.empty());
    if (model_.empty()) return;
    EXPECT_EQ(k.time, model_.begin()->first.first);
    EXPECT_EQ(k.seq, model_.begin()->first.second);
  }

  /// Pops the earliest event, runs it, and checks it against the model.
  void pop() {
    ASSERT_FALSE(model_.empty());
    IndexedQueue::Key k{};
    ASSERT_TRUE(q_.peek(now_, &k));
    const auto want = model_.begin()->first;
    ASSERT_EQ(k.time, want.first);
    ASSERT_EQ(k.seq, want.second);
    ASSERT_GE(k.time, now_) << "time ran backwards";
    EventFn fn;
    const IndexedQueue::Key popped = q_.pop_min(&fn);
    EXPECT_EQ(popped.time, k.time);
    EXPECT_EQ(popped.seq, k.seq);
    fn();
    EXPECT_EQ(fired_, want.second);
    now_ = k.time;
    model_.erase(model_.begin());
    EXPECT_EQ(q_.live(), model_.size());
  }

  /// Advances the clock without popping, never past a pending event (the
  /// Scheduler's run_until over an idle stretch).
  void advance(TimePs dt) {
    TimePs to = now_ + dt;
    if (!model_.empty()) to = std::min(to, model_.begin()->first.first);
    now_ = to;
  }

  void drain() {
    while (!model_.empty()) pop();
    IndexedQueue::Key k{};
    EXPECT_FALSE(q_.peek(now_, &k));
    EXPECT_TRUE(q_.empty());
  }

 private:
  IndexedQueue q_;
  std::map<std::pair<TimePs, std::uint64_t>, IndexedQueue::Ref> model_;
  std::vector<IndexedQueue::Ref> refs_;  // by seq
  std::vector<TimePs> times_;            // by seq
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = ~std::uint64_t{0};
  TimePs now_ = 0;
};

/// First ps past the ring, seen from a fresh queue at `now` (no grain
/// adaptation yet): one full ring of buckets after now's bucket starts.
TimePs horizon_end(Geometry g, TimePs now) {
  const TimePs bucket = TimePs{1} << g.gran_log2;
  return (now / bucket + (TimePs{1} << g.buckets_log2)) * bucket;
}

void random_ops(Geometry g, std::uint64_t seed, int ops) {
  Harness h(g);
  Rng rng(seed);
  const std::uint64_t bucket = std::uint64_t{1} << g.gran_log2;
  const std::uint64_t horizon = bucket << g.buckets_log2;
  for (int op = 0; op < ops; ++op) {
    // Alternate growing and shrinking phases so depth sweeps from empty to
    // a few thousand events: the share of ops that schedule, in percent.
    const std::uint64_t grow = op % 40'000 < 20'000 ? 55 : 40;
    if (h.size() == 0 || rng.next_below(100) < grow) {
      const std::uint64_t cls = rng.next_below(100);
      TimePs delay;
      if (cls < 15) {
        delay = 0;  // zero-delay wake: FIFO behind same-time events
      } else if (cls < 35) {
        delay = static_cast<TimePs>(rng.next_below(200));  // dense cluster
      } else if (cls < 50) {
        delay = static_cast<TimePs>(rng.next_below(4 * bucket));
      } else if (cls < 80) {
        delay = static_cast<TimePs>(rng.next_below(horizon));
      } else if (cls < 90) {
        // The last ps inside the ring, the first outside, 1 ps past it.
        delay = horizon_end(g, h.now()) - h.now() - 1 +
                static_cast<TimePs>(rng.next_below(3));
      } else {
        delay = static_cast<TimePs>(horizon + rng.next_below(ms(1)));
      }
      h.schedule(h.now() + delay);
      continue;
    }
    const std::uint64_t dice = rng.next_below(100);
    if (dice < 25) {
      h.cancel_nth(rng.next_below(h.size()));
    } else if (dice < 35) {
      // Cancel the cached minimum right after a peek.
      h.expect_min(h.now());
      h.cancel_nth(0);
    } else if (dice < 42) {
      h.cancel(rng.next_below(h.filed()));  // often fired or cancelled
    } else if (dice < 48) {
      h.advance(static_cast<TimePs>(rng.next_below(2 * horizon)));
    } else if (dice < 52) {
      h.expect_min(h.now() / 2);  // an older clock never lowers the floor
    } else {
      h.pop();
    }
    if (testing::Test::HasFatalFailure()) return;
  }
  h.drain();
}

TEST(IndexedQueue, RandomOpsMatchSortedModelAtSchedulerGeometry) {
  random_ops(kSchedulerGeometry, 1, 200'000);
}

TEST(IndexedQueue, RandomOpsMatchSortedModelAtShardGeometry) {
  random_ops(kShardGeometry, 2, 200'000);
}

TEST(IndexedQueue, RandomOpsMatchSortedModelAtTinyGeometry) {
  random_ops(kTinyGeometry, 3, 200'000);
}

TEST(IndexedQueue, ZeroDelayBurstsStayFifo) {
  Harness h(kSchedulerGeometry);
  // A later event in now's own bucket: every zero-delay wake is filed in
  // front of it, behind the same-time wakes before it.
  h.schedule(700);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 100; ++i) h.schedule(h.now());
    for (int i = 0; i < 50; ++i) h.pop();
    for (int i = 0; i < 100; ++i) h.schedule(h.now());
    for (int i = 0; i < 150; ++i) h.pop();
  }
  h.drain();
}

TEST(IndexedQueue, CrowdedBucketSpillsToTheHeapInOrder) {
  for (const Geometry g : {kSchedulerGeometry, kShardGeometry}) {
    Harness h(g);
    // 96 distinct times inside one bucket, filed latest first: every
    // insert belongs at the head, so all but the first few walk too far.
    const TimePs bucket = TimePs{1} << g.gran_log2;
    for (TimePs i = 96; i > 0; --i) h.schedule(7 * bucket + i);
    EXPECT_GT(h.queue().heap_live(), 64u);
    EXPECT_GE(h.queue().ring_live(), 1u);
    // Same-time events behind them stay FIFO on both sides of the spill.
    for (int i = 0; i < 80; ++i) h.schedule(7 * bucket + 1);
    h.drain();
  }
}

TEST(IndexedQueue, HorizonEdgeSplitsRingFromHeap) {
  for (const Geometry g : {kSchedulerGeometry, kShardGeometry}) {
    Harness h(g);
    h.schedule(333);  // puts now mid-bucket once popped
    h.pop();
    const TimePs end = horizon_end(g, h.now());
    h.schedule(end - 1);  // last ps inside the ring
    EXPECT_EQ(h.queue().ring_live(), 1u);
    EXPECT_EQ(h.queue().heap_live(), 0u);
    h.schedule(end);  // exactly at the horizon: aliases now's bucket
    h.schedule(end + 1);
    EXPECT_EQ(h.queue().ring_live(), 1u);
    EXPECT_EQ(h.queue().heap_live(), 2u);
    h.schedule(h.now() + 1);  // and one near event in now's own bucket
    h.drain();
  }
}

TEST(IndexedQueue, CancelsOfHeadTailMiddleAndCachedMinimum) {
  Harness h(kSchedulerGeometry);
  const TimePs base = ns(40);
  std::vector<std::uint64_t> seqs;
  for (TimePs i = 0; i < 5; ++i) seqs.push_back(h.schedule(base + 100 * i));
  h.expect_min(0);        // caches the bucket's head as the minimum
  h.cancel(seqs[2]);      // middle
  h.expect_min(0);
  h.cancel(seqs[4]);      // tail
  h.schedule(base + 450);  // appends behind the new tail
  h.cancel(seqs[0]);      // head, the cached minimum
  h.expect_min(0);
  h.pop();                // seqs[1]
  h.pop();                // seqs[3]
  // One entry left; pop it and refill the emptied bucket out of order.
  h.pop();
  h.schedule(base + 900);
  h.schedule(base + 800);
  h.schedule(base + 850);
  h.pop();
  // A one-entry bucket whose only event is cancelled, then refilled.
  h.cancel_nth(0);
  h.cancel_nth(0);
  h.schedule(base + 940);
  h.schedule(base + 930);
  h.drain();
}

TEST(IndexedQueue, CancelAfterFireAndDoubleCancelReturnFalse) {
  Harness h(kSchedulerGeometry);
  const std::uint64_t near = h.schedule(ns(3));
  const std::uint64_t far = h.schedule(ms(2));
  h.pop();
  h.cancel(near);  // already fired: false
  h.cancel(far);
  h.cancel(far);   // already cancelled: false
  // A recycled slot gets a new generation: the old id stays dead.
  h.schedule(ns(4));
  h.cancel(near);
  h.drain();
}

TEST(IndexedQueue, FarTimersInterleaveAndCompactInOrder) {
  Harness h(kSchedulerGeometry);
  Rng rng(11);
  std::vector<std::uint64_t> far;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 40; ++i) {
      far.push_back(h.schedule(h.now() + ms(1) +
                               static_cast<TimePs>(rng.next_below(ms(5)))));
    }
    for (int i = 0; i < 8; ++i) {
      h.schedule(h.now() + static_cast<TimePs>(rng.next_below(ns(200))));
    }
    // Most far timers are disarmed before they fire; that stale majority
    // forces compactions of the heap.
    while (far.size() > 16) {
      const std::size_t k = rng.next_below(far.size());
      h.cancel(far[k]);
      far[k] = far.back();
      far.pop_back();
    }
    for (int i = 0; i < 8; ++i) h.pop();
  }
  h.drain();
}

/// 64 self-rescheduling timers with periods 97-160 ps (bench_sim_core's
/// timer_fire shape): one bucket of the default grain holds all of them,
/// so sorted inserts walk.
class DenseTimers {
 public:
  explicit DenseTimers(Harness& h) : h_(h) {
    for (TimePs p = 97; p < 97 + 64; ++p) period_[h_.schedule(h_.now() + p)] = p;
  }

  void fire(std::uint32_t n) {
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto it = period_.find(h_.next_seq());
      ASSERT_NE(it, period_.end());
      const TimePs p = it->second;
      period_.erase(it);
      h_.pop();
      period_[h_.schedule(h_.now() + p)] = p;
    }
  }

 private:
  Harness& h_;
  std::map<std::uint64_t, TimePs> period_;  // by pending seq
};

TEST(IndexedQueue, GrainShrinksForDenseClustersAndRecovers) {
  Harness h(kSchedulerGeometry);
  DenseTimers timers(h);
  timers.fire(12 * IndexedQueue::kAdaptWindow);
  // Crowded 1-ns buckets made the ring halve its grain until the cluster
  // spread out; at steady state no insert spills any more.
  EXPECT_LT(h.queue().grain_log2(), kSchedulerGeometry.gran_log2);
  timers.fire(IndexedQueue::kAdaptWindow);
  EXPECT_EQ(h.queue().heap_live(), 0u);
  h.drain();
  // A sparse phase of 50-150 ns delays overflows the fine horizon, and the
  // ring grows its grain back to the configured one.
  Rng rng(5);
  for (std::uint32_t n = 0; n < 8 * IndexedQueue::kAdaptWindow; ++n) {
    if (h.size() < 16) {
      h.schedule(h.now() + ns(50) + static_cast<TimePs>(rng.next_below(100'000)));
    } else {
      h.pop();
    }
  }
  EXPECT_EQ(h.queue().grain_log2(), kSchedulerGeometry.gran_log2);
  h.drain();
}

}  // namespace
}  // namespace tca::sim
