// Host-clock spans around the driver's calls into the simulator.
//
// The traced run wraps every call the benchmark makes into a layer
// (Runtime::create, Communicator::create, Runtime::alloc_*/write/read,
// Scheduler::run, export_metrics, chaos::run_campaign) in a span: name,
// host start/end, parent span and op index. Spans stay in memory while the
// workload runs and are written once, at exit, as Trace Event Format JSON
// (load it in ui.perfetto.dev). Self time — a span's duration minus its
// children's — splits each op's host time by layer.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tcabench {

/// Monotonic host clock, nanoseconds.
std::int64_t host_now_ns();

struct Span {
  const char* name = "";  ///< static string (a layer entry point)
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 for roots
  std::uint64_t op = 0;      ///< op index, or SpanRecorder::kNoOp
};

class SpanRecorder {
 public:
  /// Op index of spans outside any op (set-up, counter exports).
  static constexpr std::uint64_t kNoOp = ~0ull;

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span nested in the innermost open one; returns its index.
  std::int32_t open(const char* name, std::uint64_t op);
  void close(std::int32_t id);

  /// Appends an already-finished span (synthetic trees in tests).
  std::int32_t add(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int32_t parent,
                   std::uint64_t op);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Per span: duration minus the durations of its direct children.
  [[nodiscard]] std::vector<std::int64_t> self_ns() const;

  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  /// Count, total and self time per span name.
  [[nodiscard]] std::map<std::string, Totals> totals() const;

  /// Trace Event Format document ("X" events, microsecond timestamps).
  [[nodiscard]] std::string to_json() const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span; a no-op while the recorder is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name, std::uint64_t op)
      : rec_(rec), id_(rec.enabled() ? rec.open(name, op) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) rec_.close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  std::int32_t id_;
};

}  // namespace tcabench
