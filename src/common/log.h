// Minimal leveled logger.
//
// The simulator is deterministic and single-threaded per Scheduler, so the
// logger deliberately avoids locking. Benchmarks run with the logger at
// kWarn; tests can raise verbosity per-fixture to trace protocol exchanges.
#pragma once

#include <cstdio>
#include <string>

#include "common/units.h"

namespace tca {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

/// Process-wide log configuration.
class Log {
 public:
  static LogLevel level() { return level_; }
  static void set_level(LogLevel level) { level_ = level; }

  static bool enabled(LogLevel level) { return level >= level_; }

  /// Prints `message` prefixed with `now`, the simulated time of the
  /// caller's own scheduler, so every line is attributable to an instant of
  /// the simulation that wrote it.
  static void write(LogLevel level, TimePs now, const char* component,
                    const std::string& message);

 private:
  // tca-lint: allow(det-shard-shared-state): verbosity, not simulation state
  static LogLevel level_;
};

}  // namespace tca
