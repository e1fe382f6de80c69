// Sim-core throughput: events/sec of sim::Scheduler against the seed
// (priority_queue + tombstone-set + std::function) queue in
// bench/seed_scheduler.h on synthetic churn, plus the guarantee the rewrite
// must preserve: determinism (identical fire order/results on both queues).
// Events cannot allocate: EventFn refuses, at compile time, any capture
// that does not fit its inline buffer.
//
// Workloads ("events/sec" counts every scheduler touch: schedule + cancel +
// fire):
//   timer_fire       64 self-rescheduling timers, 32-byte captures — the
//                    LinkPort/Dmac shape, where the seed std::function
//                    heap-allocated every event.
//   timer_fire_small same, 8-byte captures the seed kept inline — isolates
//                    the queue win from the allocation win.
//   churn_mix        schedule 2 / cancel 1 / fire 1 against a ~1k-deep
//                    queue — the timeout-arm/disarm pattern.
//   reschedule       a timeout pushed out 8 times before firing.
//
// --json PATH writes BENCH_sim_core.json for scripts/bench_perf.sh.
// --smoke shrinks the workloads to a <1 s regression tripwire for
// scripts/check.sh.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/seed_scheduler.h"
#include "common/rng.h"
#include "common/units.h"
#include "sim/scheduler.h"

namespace tca::bench {
namespace {

using sim::Scheduler;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t hash_combine(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

// --- timer_fire: self-rescheduling periodic timers -------------------------

template <typename Sched>
struct TimerState {
  Sched* sched;
  std::uint64_t* remaining;
  TimePs period;
};

template <typename Sched>
void arm_timer(TimerState<Sched> t) {
  if (*t.remaining == 0) return;
  --*t.remaining;
  // 32-byte capture: the simulator's common shape (this + a few scalars).
  t.sched->schedule_after(t.period, [t, pad = std::uint64_t{0}] {
    (void)pad;
    arm_timer(t);
  });
}

template <typename Sched>
void arm_timer_small(TimerState<Sched>* t) {
  if (*t->remaining == 0) return;
  --*t->remaining;
  t->sched->schedule_after(t->period, [t] { arm_timer_small(t); });
}

/// Returns events/sec; `small` selects the 8-byte-capture variant.
template <typename Sched>
double run_timer_fire(std::uint64_t fires, bool small) {
  Sched sched;
  std::uint64_t remaining = fires;
  std::vector<TimerState<Sched>> timers;
  for (int i = 0; i < 64; ++i) {
    timers.push_back(TimerState<Sched>{&sched, &remaining,
                                       97 + static_cast<TimePs>(i)});
  }
  const auto t0 = Clock::now();
  for (auto& t : timers) {
    if (small) {
      arm_timer_small(&t);
    } else {
      arm_timer(t);
    }
  }
  sched.run();
  const double secs = seconds_since(t0);
  // One schedule + one fire per event.
  return static_cast<double>(2 * sched.events_processed()) / secs;
}

// --- churn_mix: schedule 2 / cancel 1 / fire 1 ------------------------------

struct ChurnResult {
  double events_per_sec = 0;
  std::uint64_t processed = 0;
  TimePs final_now = 0;
  std::uint64_t fire_hash = 0xcbf29ce484222325ull;
};

/// Steady queue of ~kPending "victim" timeouts (armed far out, always
/// disarmed in time) alongside near-future "worker" events that fire. Only
/// certainly-pending ids are cancelled, so both queues agree and the seed's
/// tombstone set stays seed-realistic (drained, not leaking).
template <typename Sched>
ChurnResult run_churn(std::uint64_t iterations) {
  constexpr std::size_t kPending = 1024;
  constexpr TimePs kVictimDelay = units::ms(1);
  Sched sched;
  ChurnResult res;
  std::uint64_t fired = 0;

  // Pre-generated delays keep harness cost flat and identical across impls.
  std::vector<TimePs> delays(4096);
  Rng rng(123);
  for (auto& d : delays) d = 100 + static_cast<TimePs>(rng.next_below(100'000));

  // 56-byte capture: the realistic shape of a link-delivery or DMA-step
  // event (this + a descriptor's worth of scalars).
  struct Pad {
    std::uint64_t a = 0, b = 0, c = 0, d = 0;
  };
  auto worker = [&](std::uint64_t token) {
    return [&fired, &res, token, pad = Pad{}] {
      (void)pad;
      ++fired;
      res.fire_hash = hash_combine(res.fire_hash, token);
    };
  };

  std::vector<typename Sched::EventId> victims(kPending);
  for (std::size_t i = 0; i < kPending; ++i) {
    victims[i] = sched.schedule_after(kVictimDelay, worker(~i));
  }

  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iterations; ++i) {
    sched.schedule_after(delays[i & 4095], worker(i));
    const std::size_t v = i % kPending;
    TCA_ASSERT(sched.cancel(victims[v]));
    victims[v] = sched.schedule_after(kVictimDelay, worker(~i));
    sched.step();
  }
  sched.run();  // drain workers and the last kPending victims
  const double secs = seconds_since(t0);
  res.processed = sched.events_processed();
  res.final_now = sched.now();
  // Touches per iteration: 2 schedules + 1 cancel + 1 fire; plus the drain.
  const double events =
      static_cast<double>(4 * iterations + 2 * kPending);
  res.events_per_sec = events / secs;
  (void)fired;
  return res;
}

// --- reschedule: timeout pushed out repeatedly ------------------------------

template <typename Sched>
double run_reschedule(std::uint64_t iterations) {
  Sched sched;
  std::uint64_t fired = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iterations; ++i) {
    auto id = sched.schedule_after(1000, [&fired, pad = std::uint64_t{0}] {
      (void)pad;
      ++fired;
    });
    for (TimePs k = 1; k <= 8; ++k) {
      TCA_ASSERT(sched.cancel(id));
      id = sched.schedule_after(1000 + k, [&fired, pad = std::uint64_t{0}] {
        (void)pad;
        ++fired;
      });
    }
    sched.step();
  }
  const double secs = seconds_since(t0);
  return static_cast<double>(18 * iterations) / secs;
}

// --- harness ----------------------------------------------------------------

struct Measurement {
  const char* name;
  double baseline_eps = 0;  ///< the seed queue (bench/seed_scheduler.h)
  double indexed_eps = 0;   ///< sim::Scheduler
  [[nodiscard]] double speedup() const {
    return baseline_eps > 0 ? indexed_eps / baseline_eps : 0;
  }
};

/// Best of `reps` runs: the workloads are deterministic, so the max filters
/// out scheduler/interference noise on a single-core box.
template <typename F>
double best_of(int reps, F&& run) {
  double best = 0;
  for (int r = 0; r < reps; ++r) best = std::max(best, run());
  return best;
}

int run(bool smoke, const std::string& json_path) {
  const std::uint64_t scale = smoke ? 20 : 1;
  const std::uint64_t kTimerFires = 2'000'000 / scale;
  const std::uint64_t kChurnIters = 1'000'000 / scale;
  const std::uint64_t kReschedIters = 200'000 / scale;
  // Deterministic workloads + best-of-N means more reps only tightens the
  // noise floor (both sides of every ratio get the same treatment); 5 is
  // where the single-core box's run-to-run spread stops moving the ratios.
  const int kReps = smoke ? 2 : 5;
  // Full runs gate the tentpole's >=3x claim; smoke is a loose tripwire.
  const double min_headline = smoke ? 1.5 : 3.0;

  print_section("Sim-core event-engine throughput (indexed vs. seed baseline)");

  Measurement timer{"timer_fire"};
  Measurement timer_small{"timer_fire_small"};
  Measurement churn{"churn_mix"};
  Measurement resched{"reschedule"};

  timer.indexed_eps = best_of(kReps, [&] {
    return run_timer_fire<Scheduler>(kTimerFires, false);
  });
  timer.baseline_eps = best_of(kReps, [&] {
    return run_timer_fire<SeedScheduler>(kTimerFires, false);
  });

  timer_small.indexed_eps = best_of(kReps, [&] {
    return run_timer_fire<Scheduler>(kTimerFires, true);
  });
  timer_small.baseline_eps = best_of(kReps, [&] {
    return run_timer_fire<SeedScheduler>(kTimerFires, true);
  });

  const ChurnResult churn_idx = run_churn<Scheduler>(kChurnIters);
  const ChurnResult churn_idx2 = run_churn<Scheduler>(kChurnIters);
  const ChurnResult churn_base = run_churn<SeedScheduler>(kChurnIters);
  churn.indexed_eps = std::max(churn_idx.events_per_sec,
                               churn_idx2.events_per_sec);
  churn.indexed_eps = std::max(churn.indexed_eps, best_of(kReps - 2, [&] {
                                 return run_churn<Scheduler>(kChurnIters)
                                     .events_per_sec;
                               }));
  churn.baseline_eps =
      std::max(churn_base.events_per_sec, best_of(kReps - 1, [&] {
                 return run_churn<SeedScheduler>(kChurnIters).events_per_sec;
               }));

  resched.indexed_eps = best_of(kReps, [&] {
    return run_reschedule<Scheduler>(kReschedIters);
  });
  resched.baseline_eps = best_of(kReps, [&] {
    return run_reschedule<SeedScheduler>(kReschedIters);
  });

  TablePrinter table(
      {"workload", "baseline (Mev/s)", "indexed (Mev/s)", "speedup"});
  for (const Measurement* m : {&timer, &timer_small, &churn, &resched}) {
    table.add_row({m->name, TablePrinter::cell(m->baseline_eps / 1e6),
                   TablePrinter::cell(m->indexed_eps / 1e6),
                   TablePrinter::cell(m->speedup())});
  }
  table.print();

  const bool deterministic = churn_idx.processed == churn_idx2.processed &&
                             churn_idx.final_now == churn_idx2.final_now &&
                             churn_idx.fire_hash == churn_idx2.fire_hash;
  // sim::Scheduler must reproduce the seed queue's exact fire order (and
  // therefore hash).
  const bool impl_equivalent = churn_idx.processed == churn_base.processed &&
                               churn_idx.final_now == churn_base.final_now &&
                               churn_idx.fire_hash == churn_base.fire_hash;

  ShapeCheck check;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "headline churn_mix speedup %.2fx >= %.1fx over seed queue",
                churn.speedup(), min_headline);
  check.expect(churn.speedup() >= min_headline, buf);
  std::snprintf(buf, sizeof buf,
                "timer_fire at least at parity with seed queue (%.2fx >= "
                "0.8x; the win here is zero allocations, not raw rate)",
                timer.speedup());
  check.expect(timer.speedup() >= 0.8, buf);
  std::snprintf(buf, sizeof buf,
                "timer_fire_small speedup %.2fx >= 1.0x over seed queue "
                "(calendar ring, grain adapted to the dense timers)",
                timer_small.speedup());
  check.expect(timer_small.speedup() >= 1.0, buf);
  std::snprintf(buf, sizeof buf,
                "reschedule speedup %.2fx >= 1.2x over seed queue",
                resched.speedup());
  check.expect(resched.speedup() >= 1.2, buf);
  check.expect(deterministic,
               "two identical indexed runs: same events_processed, now, "
               "fire-order hash");
  check.expect(impl_equivalent,
               "seed and indexed queues produce identical simulated results "
               "(fire-order hash)");

  if (!json_path.empty()) {
    std::string json;
    appendf(json, "{\n  \"bench\": \"sim_core\",\n");
    appendf(json, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    for (const Measurement* m : {&timer, &timer_small, &churn, &resched}) {
      appendf(json,
              "  \"%s\": {\"baseline_events_per_sec\": %.0f, "
              "\"indexed_events_per_sec\": %.0f, \"speedup\": %.3f},\n",
              m->name, m->baseline_eps, m->indexed_eps, m->speedup());
    }
    appendf(json, "  \"headline_speedup\": %.3f,\n", churn.speedup());
    appendf(json, "  \"deterministic\": %s,\n",
            deterministic ? "true" : "false");
    appendf(json, "  \"backends_equivalent\": %s\n",
            impl_equivalent ? "true" : "false");
    appendf(json, "}\n");
    check.expect_written(json_path, json);
  }

  return check.finish();
}

}  // namespace
}  // namespace tca::bench

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json PATH]\n", argv[0]);
      return 2;
    }
  }
  return tca::bench::run(smoke, json_path);
}
