// Order statistics for the benchmark's per-op samples.
//
// Host timings are summarised by their median: the per-op work of the
// pio/dma/allreduce workloads is identical on every repeat, so the spread
// around the median is machine noise, and the median is the statistic that
// noise moves least. Tails are reported only where enough samples lie
// beyond them to mean something (see tail()).
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <vector>

namespace tcabench {

/// Median of `v` (mean of the two middle values for an even count); 0 for
/// an empty sample.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double upper = v[mid];
  if (v.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lower + upper) / 2;
}

/// The highest order statistic that still has `min_beyond` samples above
/// it, and the percentile it sits at. With 100 samples and min_beyond = 10
/// this is the 90th value (p90); with 40 samples it is the 30th (p75).
struct Tail {
  double pct = 0;    ///< share of samples at or below `value`, in percent
  double value = 0;
};

inline std::optional<Tail> tail(std::vector<double> v,
                                std::size_t min_beyond = 10) {
  if (v.size() <= min_beyond) return std::nullopt;
  std::sort(v.begin(), v.end());
  const std::size_t rank = v.size() - min_beyond;  // 1-based
  return Tail{.pct = 100.0 * static_cast<double>(rank) /
                     static_cast<double>(v.size()),
              .value = v[rank - 1]};
}

}  // namespace tcabench
