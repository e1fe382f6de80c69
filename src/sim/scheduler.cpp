#include "sim/scheduler.h"

namespace tca::sim {

void Scheduler::run_until(TimePs t) {
  TCA_ASSERT(t >= now_);
  ArenaScope scope(&arena_);
  while (fire_next(t)) {
  }
  now_ = t;
}

}  // namespace tca::sim
