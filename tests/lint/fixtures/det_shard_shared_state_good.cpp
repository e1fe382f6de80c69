// Clean twin of det_shard_shared_state_bad.cpp: every static or inline
// variable in the simulator is immutable, synchronized, or per-thread — or
// carries a justified allow when a counter is genuinely diagnostic-only.
// Inline functions are not state.
#include <atomic>
#include <cstdint>

namespace fixture {

static constexpr std::uint64_t kEpochWindowPs = 25'000;  // immutable
inline constexpr std::uint64_t kShardCount = 4;            // immutable

inline static std::atomic<std::uint64_t> g_events_executed{0};  // synchronized

static thread_local std::uint64_t t_shard_scratch = 0;  // per-worker

// Read exclusively after the worker pool has joined.
// tca-lint: allow(det-shard-shared-state): debug-only high-water mark
static std::uint64_t g_debug_high_water = 0;

inline std::uint64_t shard_of(std::uint64_t seq) { return seq % kShardCount; }

std::uint64_t next_sequence() {
  t_shard_scratch += kEpochWindowPs;
  if (t_shard_scratch > g_debug_high_water) {
    g_debug_high_water = t_shard_scratch;
  }
  return g_events_executed.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace fixture
