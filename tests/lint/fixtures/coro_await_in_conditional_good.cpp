// Clean twin of coro_await_in_conditional_bad.cpp: the path choice made
// with if/else, a conditional inside a co_await's operand, a co_await in
// the condition, and a lambda coroutine whose own body suspends.
#include "sim/task.h"

namespace fixture {

sim::Task<Status> immediate_put(int channel);
sim::Task<Status> chained_put(int channel);
sim::Task<bool> probe(int channel);

sim::Task<Status> put(int channel, bool short_path) {
  Status st;
  if (short_path) {
    st = co_await immediate_put(channel);
  } else {
    st = co_await chained_put(channel);
  }
  co_return st;
}

// The conditional picks an argument; nothing suspends inside it.
sim::Task<Status> put_on(bool first) {
  co_return co_await chained_put(first ? 0 : 1);
}

// The condition may suspend: only the arms are affected.
sim::Task<int> width(int channel) {
  co_return co_await probe(channel) ? 8 : 4;
}

// A lambda body in an operand suspends its own frame.
auto pick(bool fast) {
  return fast ? [](int c) -> sim::Task<Status> {
    co_return co_await immediate_put(c);
  } : nullptr;
}

}  // namespace fixture
