// Exact-percentile latency samples for benchmark reporting.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"

namespace tca {

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
