// Fabric-wide observability layer (`tca::obs`).
//
// The paper's evaluation is an exercise in observing where bytes and
// nanoseconds go — link efficiency (Fig. 9), descriptor-fetch overhead
// (Fig. 8), per-hop cost (Fig. 12). APEnet+ attributes its tuning wins to
// per-port/per-channel hardware counters; this module gives the simulator
// the same first-class metrics surface:
//
//  * MetricRegistry — typed counters, gauges, and latency histograms under
//    hierarchical dotted names ("node0.peach2.dmac.ch2.descriptors"), with
//    JSON snapshot export and chrome://tracing counter events riding the
//    interned Trace.
//  * A process-wide sampling gate (`sampling_enabled`) so hot paths record
//    latency samples only when observability is on: with sampling off the
//    simulator's per-event cost is exactly what it was before this layer
//    existed (plain integer counters, no allocation).
//
// Components keep cheap raw counters as members (the "hardware counters");
// each layer exposes an export hook (fabric::SubCluster::export_metrics,
// api::Runtime::export_metrics) that pulls them into a registry at snapshot
// time. Snapshots are therefore free until requested.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/error.h"
#include "common/stats.h"
#include "common/units.h"

namespace tca {
class Trace;
}  // namespace tca

namespace tca::obs {

namespace detail {
// tcabench toggles the gate between ops; it moves with a benchmark change.
// tca-lint: allow(det-shard-shared-state): set by the benchmark driver
inline bool g_sampling_enabled = false;
}  // namespace detail

/// Global gate for per-event *sample* recording (latency histograms). Raw
/// counters are always on — an integer increment is cheaper than the check
/// would be — but sample series grow memory per event, so they default off.
[[nodiscard]] inline bool sampling_enabled() {
  return detail::g_sampling_enabled;
}
inline void set_sampling_enabled(bool on) { detail::g_sampling_enabled = on; }

/// Monotonically increasing 64-bit event/byte count.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  void set(std::uint64_t v) { value_ = v; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Point-in-time measurement (queue depth, ratio, configuration value).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0;
};

/// Latency/size distribution: exact percentiles over every sample
/// (SampleSeries keeps them all — simulator runs record at most a few
/// hundred thousand) plus a running sum for the mean. Every statistic reads
/// 0 while the histogram is empty.
class Histogram {
 public:
  void record(double x) {
    samples_.add(x);
    sum_ += x;
  }
  void record_series(const SampleSeries& series) {
    for (double s : series.samples()) record(s);
  }

  [[nodiscard]] std::uint64_t count() const { return samples_.count(); }
  [[nodiscard]] double mean() const {
    return samples_.empty() ? 0.0 : sum_ / static_cast<double>(count());
  }
  [[nodiscard]] double min() const { return samples_.percentile(0); }
  [[nodiscard]] double max() const { return samples_.percentile(100); }
  [[nodiscard]] double percentile(double p) const {
    return samples_.percentile(p);
  }

 private:
  SampleSeries samples_;
  double sum_ = 0;
};

/// The JSON-visible summary of a histogram (what snapshots round-trip).
struct HistogramSummary {
  std::uint64_t count = 0;
  double mean = 0;
  double min = 0;
  double max = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
};

/// A parsed metrics snapshot — the JSON document as plain maps. Produced by
/// MetricRegistry::snapshot() and by from_json() (round-trip), consumed by
/// tests and sidecar tooling.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSummary> histograms;

  /// Parses a document previously produced by MetricRegistry::to_json().
  /// Minimal, schema-specific JSON reader — not a general-purpose parser.
  static Result<MetricsSnapshot> from_json(std::string_view json);
};

/// Central registry: find-or-create metrics by hierarchical name. Returned
/// references are stable for the registry's lifetime (node-based storage),
/// so instrumentation sites may cache them. Iteration is name-sorted, which
/// makes JSON output deterministic.
class MetricRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Counter lookup without creation; 0 when absent.
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;

  [[nodiscard]] std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Serializes the snapshot as a JSON document:
  ///   {"meta": {"schema": "tca-metrics-v1"},
  ///    "counters": {...}, "gauges": {...}, "histograms": {...}}
  [[nodiscard]] std::string to_json() const;
  Status write_json(const std::string& path) const;

  /// Records one chrome://tracing counter event per counter/gauge into
  /// `trace` at simulated time `at`, on the "metrics" track.
  void emit_trace_counters(Trace& trace, TimePs at) const;

 private:
  // std::map: stable references (node-based) + sorted deterministic dumps.
  // Transparent comparator allows string_view lookups without a copy.
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace tca::obs
