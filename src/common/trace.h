// Event tracing with chrome://tracing (Perfetto-compatible) JSON export.
//
// A Trace belongs to one simulation: the caller owns it and attaches it to
// its scheduler (`sched.set_trace(&trace)`), and every instrumentation site
// records into `sched.trace()`, which is null when the simulation is not
// traced. Two simulations in one process therefore never share a timeline.
// Tracks map to simulator components (one "thread" per chip/engine/link),
// durations to DMA descriptors / TLP serializations / driver operations,
// instants to interrupts and notifications. Load the JSON in chrome://tracing
// or ui.perfetto.dev to see a transfer's anatomy on the simulated timeline.
//
// Track and name strings are interned: each distinct string is stored once
// in an id table and events carry two 32-bit ids, so recording an event is a
// 40-byte append instead of two std::string copies (which heap-allocated for
// every non-SSO name and made tracing measurably perturb long runs). Hot
// sites may also pre-intern and record by StrId. The JSON names tracks by
// content and numbers them by first appearance, so it does not depend on
// the interning order.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/error.h"
#include "common/units.h"

namespace tca {

class Trace {
 public:
  /// Index into the interned-string table; stable for the trace's lifetime.
  using StrId = std::uint32_t;

  /// Returns the id for `s`, copying it into the table on first sight.
  StrId intern(std::string_view s);

  /// A completed span on `track` from `begin` to `end` (simulated time).
  void duration(std::string_view track, std::string_view name, TimePs begin,
                TimePs end);
  void duration(StrId track, StrId name, TimePs begin, TimePs end);

  /// A point event.
  void instant(std::string_view track, std::string_view name, TimePs at);
  void instant(StrId track, StrId name, TimePs at);

  /// A counter sample (rendered as a track graph).
  void counter(StrId track, StrId name, TimePs at, double value);

  [[nodiscard]] std::size_t event_count() const { return events_.size(); }

  /// Serializes the Trace Event Format JSON (returns it; write_json saves).
  [[nodiscard]] std::string to_json() const;
  Status write_json(const std::string& path) const;

 private:
  enum class Kind { kDuration, kInstant, kCounter };
  struct Event {
    Kind kind;
    StrId track;
    StrId name;
    TimePs begin;
    TimePs end;     // durations only
    double value;   // counters only
  };

  struct TransparentHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::vector<Event> events_;
  std::vector<std::string> strings_;
  std::unordered_map<std::string, StrId, TransparentHash, std::equal_to<>>
      index_;
};

/// Span helper: records `name` on `track` of `trace` from the `begin` time
/// given at construction to the time passed to end(); both are the caller's
/// simulated time. No-op when `trace` is null (tracing off).
class TraceSpan {
 public:
  TraceSpan(Trace* trace, std::string_view track, std::string_view name,
            TimePs begin)
      : trace_(trace), begin_(begin) {
    if (trace_ != nullptr) {
      track_ = trace_->intern(track);
      name_ = trace_->intern(name);
    }
  }

  /// Explicit completion with the end timestamp.
  void end(TimePs end_time) {
    if (trace_ != nullptr) {
      trace_->duration(track_, name_, begin_, end_time);
      trace_ = nullptr;
    }
  }

 private:
  Trace* trace_;
  Trace::StrId track_ = 0;
  Trace::StrId name_ = 0;
  TimePs begin_;
};

}  // namespace tca
