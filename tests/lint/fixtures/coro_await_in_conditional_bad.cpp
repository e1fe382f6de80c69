// Seeded violations: coro-await-in-conditional — co_await in an operand of
// the conditional operator. GCC 12 destroys the conditional's result
// temporaries twice when an arm suspends; ASan reports a double free (or a
// free of an address that was never malloc()-ed) from ~Status.
#include "sim/task.h"

namespace fixture {

sim::Task<Status> immediate_put(int channel);
sim::Task<Status> chained_put(int channel);

// Both arms suspend: two findings.
sim::Task<Status> put(int channel, bool short_path) {
  const Status st = short_path ? co_await immediate_put(channel)
                               : co_await chained_put(channel);
  co_return st;
}

// One suspending arm of a nested conditional: one finding, however many
// `?` enclose it.
sim::Task<Status> put_small(int channel, bool skip, bool short_path) {
  co_return skip ? Status{} : short_path ? co_await immediate_put(channel)
                                         : Status{};
}

}  // namespace fixture
