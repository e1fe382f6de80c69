// The benchmark's workloads and the runner that times them.
//
// Each workload is a closed loop over one kind of op: the next op starts
// when Scheduler::run() has drained the previous one, and every op is
// verified. The runner builds the workload several times (set-up), runs
// kWarmupOps untimed ops, then times ops for the requested number of host
// seconds, and at least kMinTimedOps. An untraced run yields the end-to-end
// metrics; a traced run alternates untraced and traced ops and yields the
// per-layer metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spans.h"

namespace tcabench {

/// Ops run before timing starts. Their simulated outputs and the counter
/// snapshot after them form the digest, which therefore does not depend on
/// how many ops the host managed to time.
inline constexpr std::uint64_t kWarmupOps = 3;

/// Ops the timed phase runs at least, however short `seconds` is.
inline constexpr std::uint64_t kMinTimedOps = 2;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  ///< length of the timed phase (host clock)
  bool traced = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// FNV-1a over the warm-up ops' simulated outputs and the hardware
  /// counters after them: equal across same-seed runs, traced or not.
  std::uint64_t digest = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;  ///< traced runs only
  std::vector<std::string> notes;  ///< failures, accounting, span summary
};

const std::vector<std::string>& workload_names();
bool is_workload(const std::string& name);

/// Runs one workload in this process. Spans of the traced ops (and of the
/// set-ups, in a traced run) are recorded into `spans`.
RunResult run_workload(const RunOptions& opt, SpanRecorder& spans);

}  // namespace tcabench
