// Units used throughout the TCA simulator.
//
// Simulated time is kept as a signed 64-bit count of *picoseconds*.  At PCIe
// Gen2 x8 speed one byte occupies 250 ps on the wire, so nanosecond
// resolution would accumulate rounding error over multi-kilobyte TLPs;
// picoseconds keep every wire-time computation exact while still giving a
// simulation horizon of ~106 days.
#pragma once

#include <cstdint>
#include <string>

namespace tca {

/// Simulated time in picoseconds.
using TimePs = std::int64_t;

namespace units {

inline constexpr TimePs kPicosecond = 1;
inline constexpr TimePs kNanosecond = 1'000;
inline constexpr TimePs kMicrosecond = 1'000'000;
inline constexpr TimePs kMillisecond = 1'000'000'000;
inline constexpr TimePs kSecond = 1'000'000'000'000;

/// Convenience constructors so call sites read like physical quantities.
constexpr TimePs ps(std::int64_t v) { return v; }
constexpr TimePs ns(std::int64_t v) { return v * kNanosecond; }
constexpr TimePs us(std::int64_t v) { return v * kMicrosecond; }
constexpr TimePs ms(std::int64_t v) { return v * kMillisecond; }

constexpr double to_ns(TimePs t) { return static_cast<double>(t) / 1e3; }
constexpr double to_us(TimePs t) { return static_cast<double>(t) / 1e6; }
constexpr double to_s(TimePs t) { return static_cast<double>(t) / 1e12; }

inline constexpr std::uint64_t kKiB = 1024;
inline constexpr std::uint64_t kMiB = 1024 * kKiB;
inline constexpr std::uint64_t kGiB = 1024 * kMiB;

constexpr std::uint64_t kib(std::uint64_t v) { return v * kKiB; }
constexpr std::uint64_t mib(std::uint64_t v) { return v * kMiB; }
constexpr std::uint64_t gib(std::uint64_t v) { return v * kGiB; }

/// True when [offset, offset + len) lies inside a region of `size` bytes.
/// The overflow-safe form of offset + len <= size: the plain sum wraps for
/// offsets or lengths near 2^64 and lets a wild range pass.
constexpr bool range_fits(std::uint64_t offset, std::uint64_t len,
                          std::uint64_t size) {
  return offset <= size && len <= size - offset;
}

/// Bandwidth in bytes/second given a byte count and elapsed simulated time.
/// Returns 0 for a non-positive duration (caller decides how to report it).
constexpr double bytes_per_second(std::uint64_t bytes, TimePs elapsed) {
  if (elapsed <= 0) return 0.0;
  return static_cast<double>(bytes) / (static_cast<double>(elapsed) / 1e12);
}

/// Bandwidth helper expressed in the paper's unit (Gbytes/sec = 1e9 B/s).
constexpr double gbytes_per_second(std::uint64_t bytes, TimePs elapsed) {
  return bytes_per_second(bytes, elapsed) / 1e9;
}

/// Human-readable time, e.g. "782 ns", "1.24 us".
std::string format_time(TimePs t);

/// Human-readable size, e.g. "4 KiB", "256 B".
std::string format_size(std::uint64_t bytes);

}  // namespace units
}  // namespace tca
