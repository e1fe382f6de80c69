// The seed event queue, kept as a reference outside the simulator.
//
// std::priority_queue of (time, id, std::function) plus an unordered_set of
// cancelled-id tombstones checked on every pop: the design sim::Scheduler
// started from. bench_sim_core measures sim::Scheduler's throughput against
// it, and scheduler_stress_test holds sim::Scheduler's fire order equal to
// it. It offers the slice of sim::Scheduler's API those workloads use, so
// one workload template drives either. Not linked into the simulator.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/units.h"

namespace tca::bench {

class SeedScheduler {
 public:
  using EventId = std::uint64_t;
  static constexpr EventId kInvalidEvent = 0;

  SeedScheduler() = default;
  SeedScheduler(const SeedScheduler&) = delete;
  SeedScheduler& operator=(const SeedScheduler&) = delete;

  [[nodiscard]] TimePs now() const { return now_; }

  template <typename F>
  EventId schedule_at(TimePs t, F&& fn) {
    return schedule(t, std::function<void()>(std::forward<F>(fn)));
  }

  template <typename F>
  EventId schedule_after(TimePs delay, F&& fn) {
    TCA_ASSERT(delay >= 0);
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  bool cancel(EventId id) {
    if (id == kInvalidEvent || id >= next_id_) return false;
    // Seed semantics: mark-and-skip tombstones; the set is consulted by a
    // hash lookup on every pop.
    return cancelled_.insert(id).second;
  }

  bool step() { return run_one(kNoLimit); }

  void run() {
    while (run_one(kNoLimit)) {
    }
  }

  [[nodiscard]] bool empty() const {
    return queue_.size() == cancelled_.size();
  }

  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }

 private:
  static constexpr TimePs kNoLimit = std::numeric_limits<TimePs>::max();

  struct Entry {
    TimePs time;
    EventId id;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.id > b.id;  // FIFO among same-time events
    }
  };

  EventId schedule(TimePs t, std::function<void()> fn) {
    TCA_ASSERT(t >= now_);
    TCA_ASSERT(fn != nullptr);
    const EventId id = next_id_++;
    queue_.push(Entry{t, id, std::move(fn)});
    return id;
  }

  bool run_one(TimePs limit) {
    while (!queue_.empty()) {
      const Entry& top = queue_.top();
      if (auto it = cancelled_.find(top.id); it != cancelled_.end()) {
        cancelled_.erase(it);
        queue_.pop();
        continue;
      }
      if (top.time > limit) return false;
      Entry entry = std::move(const_cast<Entry&>(top));
      queue_.pop();
      TCA_ASSERT(entry.time >= now_);
      now_ = entry.time;
      ++processed_;
      entry.fn();
      return true;
    }
    return false;
  }

  TimePs now_ = 0;
  std::uint64_t processed_ = 0;
  EventId next_id_ = 1;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::unordered_set<EventId> cancelled_;
};

}  // namespace tca::bench
