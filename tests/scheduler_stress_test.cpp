// Stress and determinism guard for the rewritten event core.
//
// Randomized schedule/cancel/reschedule interleavings (>=100k fired events)
// assert the invariants the indexed queue must preserve: FIFO stability
// among equal timestamps, cancel-after-fire returning false, run-to-run
// determinism (identical events_processed and fire-order hashes), and
// equivalence with the seed priority_queue scheduler in
// bench/seed_scheduler.h.
// Also pins the allocation-free guarantee of sim::EventFn for the capture
// shapes the simulator's hot paths use.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "bench/seed_scheduler.h"
#include "common/rng.h"
#include "common/units.h"
#include "pcie/tlp.h"
#include "sim/event_fn.h"
#include "sim/scheduler.h"

namespace tca::sim {
namespace {

using units::ns;

std::uint64_t hash_combine(std::uint64_t h, std::uint64_t v) {
  // FNV-1a over the 8 bytes of v.
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

struct StressResult {
  std::uint64_t processed = 0;
  std::uint64_t fired = 0;
  TimePs final_now = 0;
  std::uint64_t fire_hash = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  bool fifo_ok = true;
};

/// Drives `target_fired` events through a Scheduler with a deterministic mix
/// of schedules (some from inside callbacks), cancels of live events, and
/// reschedules (cancel + schedule). Tokens increase in scheduling order, so
/// FIFO stability among equal timestamps is checkable as strictly increasing
/// tokens within each timestamp.
template <typename Sched>
StressResult run_stress(std::uint64_t seed, std::uint64_t target_fired) {
  Sched sched;
  Rng rng(seed);
  StressResult res;
  std::uint64_t next_token = 0;
  TimePs last_time = -1;
  std::uint64_t last_token = 0;
  // Live (cancellable) events: parallel id/token bookkeeping, swap-removed.
  // Entries for fired events are purged before use (fired_flag), so cancel()
  // is only ever invoked on genuinely pending events — where both queues
  // agree; cancel-after-fire semantics get their own dedicated test.
  std::vector<std::pair<typename Sched::EventId, std::uint64_t>> live;
  std::vector<char> fired_flag;

  auto on_fire = [&](std::uint64_t token) {
    const TimePs t = sched.now();
    if (t == last_time && token <= last_token) res.fifo_ok = false;
    last_time = t;
    last_token = token;
    fired_flag[token] = 1;
    ++res.fired;
    res.fire_hash = hash_combine(res.fire_hash, token);
    res.fire_hash = hash_combine(res.fire_hash, static_cast<std::uint64_t>(t));
  };

  auto schedule_one = [&](TimePs at) {
    const std::uint64_t token = next_token++;
    fired_flag.push_back(0);
    live.emplace_back(sched.schedule_at(at, [&, token] { on_fire(token); }),
                      token);
  };

  // Picks a random still-pending entry and removes it from `live`, purging
  // fired entries it stumbles on. Returns kInvalidEvent when none is left.
  auto take_live = [&]() -> typename Sched::EventId {
    while (!live.empty()) {
      const std::size_t i = rng.next_below(live.size());
      const auto [id, token] = live[i];
      live[i] = live.back();
      live.pop_back();
      if (fired_flag[token] == 0) return id;
    }
    return Sched::kInvalidEvent;
  };

  while (res.fired < target_fired) {
    const std::uint64_t op = rng.next_below(8);
    if (op < 4 || live.empty()) {
      // Same-timestamp bursts are common (a quarter of schedules reuse the
      // current instant) so the FIFO check actually bites.
      const TimePs at = rng.next_below(4) == 0
                            ? sched.now()
                            : sched.now() + static_cast<TimePs>(
                                                rng.next_below(1000));
      schedule_one(at);
    } else if (op < 5) {
      if (const auto id = take_live(); id != Sched::kInvalidEvent) {
        EXPECT_TRUE(sched.cancel(id));
      }
    } else if (op < 6) {
      // Reschedule: cancel + schedule at a new time, as a timeout push-out.
      if (const auto id = take_live(); id != Sched::kInvalidEvent) {
        EXPECT_TRUE(sched.cancel(id));
        schedule_one(sched.now() + static_cast<TimePs>(rng.next_below(500)));
      }
    } else {
      sched.step();
    }
  }
  sched.run();
  res.processed = sched.events_processed();
  res.final_now = sched.now();
  EXPECT_TRUE(sched.empty());
  return res;
}

TEST(SchedulerStress, FifoStableAndDeterministicAcrossRuns) {
  const auto a = run_stress<Scheduler>(0xA11CE, 120'000);
  const auto b = run_stress<Scheduler>(0xA11CE, 120'000);
  EXPECT_TRUE(a.fifo_ok);
  EXPECT_GE(a.fired, 120'000u);
  EXPECT_EQ(a.processed, b.processed);
  EXPECT_EQ(a.fired, b.fired);
  EXPECT_EQ(a.final_now, b.final_now);
  EXPECT_EQ(a.fire_hash, b.fire_hash);
}

TEST(SchedulerStress, IndexedMatchesBaselineImpl) {
  // The indexed queue must reproduce the seed queue's simulated behavior:
  // same events fire, in the same order, at the same times.
  const auto idx = run_stress<Scheduler>(0x5EED, 100'000);
  const auto base = run_stress<bench::SeedScheduler>(0x5EED, 100'000);
  EXPECT_TRUE(idx.fifo_ok);
  EXPECT_TRUE(base.fifo_ok);
  EXPECT_EQ(idx.processed, base.processed);
  EXPECT_EQ(idx.fired, base.fired);
  EXPECT_EQ(idx.final_now, base.final_now);
  EXPECT_EQ(idx.fire_hash, base.fire_hash);
}

TEST(SchedulerStress, CancelAfterFireReturnsFalse) {
  Scheduler sched;
  std::vector<Scheduler::EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(sched.schedule_at(ns(i), [] {}));
  }
  sched.run();
  for (auto id : ids) EXPECT_FALSE(sched.cancel(id));
  // Slot reuse must not resurrect old ids: new events recycle the slots the
  // fired ones used, yet the stale ids still cancel nothing.
  std::vector<Scheduler::EventId> fresh;
  for (int i = 0; i < 1000; ++i) {
    fresh.push_back(sched.schedule_after(ns(1), [] {}));
  }
  for (auto id : ids) EXPECT_FALSE(sched.cancel(id));
  for (auto id : fresh) EXPECT_TRUE(sched.cancel(id));
  sched.run();
  EXPECT_TRUE(sched.empty());
}

TEST(SchedulerStress, CancelledStormDoesNotFire) {
  // Heavy tombstone load: 50k scheduled, all but every 16th cancelled.
  Scheduler sched;
  Rng rng(99);
  std::uint64_t fired = 0;
  std::vector<Scheduler::EventId> ids;
  for (int i = 0; i < 50'000; ++i) {
    ids.push_back(sched.schedule_at(
        static_cast<TimePs>(rng.next_below(1'000'000)), [&fired] { ++fired; }));
  }
  std::uint64_t kept = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i % 16 == 0) {
      ++kept;
    } else {
      EXPECT_TRUE(sched.cancel(ids[i]));
    }
  }
  sched.run();
  EXPECT_EQ(fired, kept);
  EXPECT_EQ(sched.events_processed(), kept);
}

// --- EventFn ----------------------------------------------------------------

TEST(EventFn, SimCaptureShapesStayInline) {
  // The capture shapes of the simulator's hot paths: [this] retries and
  // link hops, and the TLP-handle captures: [this, offset, TlpPtr] commits
  // at the root complex and the GPU, [this, out, gen, TlpPtr] the chip's
  // route pipeline and [this, TlpPtr] the GPU's read latency. Each carries
  // the 8-byte handle, never the TLP, and the capture owns it: the event
  // that runs (or is destroyed unrun) frees the TLP. That each shape fits
  // the inline buffer is checked where it compiles: EventFn refuses any
  // callable that does not.
  struct Fake {
    int hits = 0;
  } fake;

  EventFn small([&fake] { ++fake.hits; });

  static_assert(sizeof(pcie::TlpPtr) == sizeof(void*));
  const std::vector<std::byte> bytes(256, std::byte{0x5A});
  EventFn commit([p = &fake, offset = std::uint64_t{0x40},
                  t = pcie::Tlp::mem_write(0x1000, bytes)] {
    if (t->payload.size() == 256 && offset == 0x40) ++p->hits;
  });
  EventFn route([p = &fake, out = 2, gen = std::uint32_t{7},
                 t = pcie::Tlp::mem_write(0x2000, bytes)] {
    if (t->address == 0x2000 && out == 2 && gen == 7) ++p->hits;
  });
  EventFn latency([p = &fake, t = pcie::Tlp::mem_read(0x3000, 64, 1, 2)] {
    if (t->length == 64) ++p->hits;
  });

  small();
  commit();
  route();
  latency();
  EXPECT_EQ(fake.hits, 4);
}

TEST(EventFn, MoveTransfersStateAndDestroysOnce) {
  int destroyed = 0;
  struct Probe {
    int* counter;
    explicit Probe(int* c) : counter(c) {}
    Probe(Probe&& o) noexcept : counter(std::exchange(o.counter, nullptr)) {}
    Probe(const Probe&) = delete;
    ~Probe() {
      if (counter != nullptr) ++*counter;
    }
  };
  {
    EventFn a([p = Probe(&destroyed)] { (void)p; });
    EXPECT_TRUE(static_cast<bool>(a));
    EventFn b = std::move(a);
    EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(static_cast<bool>(b));
    EventFn c;
    c = std::move(b);
    EXPECT_TRUE(static_cast<bool>(c));
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 1);
}

}  // namespace
}  // namespace tca::sim
