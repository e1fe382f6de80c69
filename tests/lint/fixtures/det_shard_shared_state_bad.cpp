// Seeded violation: det-shard-shared-state — mutable statics and inline
// variables in the simulator. Process-global state is shared by every
// simulation in the process, so simulations run side by side on a thread
// pool race on it, and the value any event observes depends on what ran
// before: replay stops being bit-identical.
#include <cstdint>

namespace fixture {

inline static std::uint64_t g_events_executed = 0;  // namespace-scope static
inline bool g_sampling_on = false;  // namespace-scope inline variable

std::uint64_t next_sequence() {
  static std::uint64_t counter = 0;  // function-local mutable static
  ++g_events_executed;
  return ++counter;
}

}  // namespace fixture
