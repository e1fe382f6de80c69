#include "common/stats.h"

#include <algorithm>

#include "common/error.h"

namespace tca {

void SampleSeries::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double SampleSeries::percentile(double p) const {
  TCA_ASSERT(p >= 0.0 && p <= 100.0);
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  if (samples_.size() == 1) return samples_[0];
  const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= samples_.size()) return samples_.back();
  return samples_[lo] * (1.0 - frac) + samples_[lo + 1] * frac;
}

}  // namespace tca
