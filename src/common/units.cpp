#include "common/units.h"

#include <cmath>
#include <cstdio>

namespace tca::units {
namespace {

std::string format_scaled(double value, const char* unit) {
  char buf[64];
  if (value == std::floor(value) && value < 1e6) {
    std::snprintf(buf, sizeof buf, "%.0f %s", value, unit);
  } else {
    std::snprintf(buf, sizeof buf, "%.3g %s", value, unit);
  }
  return buf;
}

}  // namespace

std::string format_time(TimePs t) {
  const double v = static_cast<double>(t);
  if (t < 0) return std::string("-").append(format_time(-t));
  if (t < kNanosecond) return format_scaled(v, "ps");
  if (t < kMicrosecond) return format_scaled(v / 1e3, "ns");
  if (t < kMillisecond) return format_scaled(v / 1e6, "us");
  if (t < kSecond) return format_scaled(v / 1e9, "ms");
  return format_scaled(v / 1e12, "s");
}

std::string format_size(std::uint64_t bytes) {
  const double v = static_cast<double>(bytes);
  if (bytes < kKiB) return format_scaled(v, "B");
  if (bytes < kMiB) return format_scaled(v / static_cast<double>(kKiB), "KiB");
  if (bytes < kGiB) return format_scaled(v / static_cast<double>(kMiB), "MiB");
  return format_scaled(v / static_cast<double>(kGiB), "GiB");
}

}  // namespace tca::units
