// Running statistics and latency histograms for benchmark reporting.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/units.h"

namespace tca {

/// Streaming count/mean/min/max accumulator.
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double mean() const { return count_ ? mean_ : 0.0; }
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Exact-percentile sample recorder. Benchmarks in this project record at
/// most a few hundred thousand samples, so keeping them all is cheaper than
/// maintaining an approximate sketch and keeps percentiles exact.
class SampleSeries {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }
  void add_time(TimePs t) { add(static_cast<double>(t)); }

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }

  /// Percentile in [0, 100] by nearest-rank on the sorted samples.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }

  /// Raw samples in insertion order (may be re-sorted by percentile calls;
  /// callers must not rely on ordering, only on the multiset of values).
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

}  // namespace tca
