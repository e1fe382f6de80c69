// Shared helpers for the reproduction benches.
//
// Every bench binary prints the paper's series as an aligned table, then a
// list of shape checks (who wins, saturation points, ratios) and exits
// non-zero if a check fails — so `for b in build/bench/*; do $b; done`
// doubles as a regression gate for the reproduction.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "common/table.h"
#include "common/units.h"
#include "driver/peach2_driver.h"
#include "fabric/sub_cluster.h"
#include "peach2/descriptor.h"
#include "sim/scheduler.h"

namespace tca::bench {

/// Accumulates pass/fail shape checks and renders them.
class ShapeCheck {
 public:
  void expect(bool ok, const std::string& what) {
    results_.push_back({ok, what});
    if (!ok) failed_ = true;
  }
  void expect_near(double value, double target, double tol,
                   const std::string& what) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s (measured %.3f, target %.3f +/- %.3f)",
                  what.c_str(), value, target, tol);
    expect(value >= target - tol && value <= target + tol, buf);
  }
  void expect_ratio(double num, double den, double lo, double hi,
                    const std::string& what) {
    const double r = den != 0 ? num / den : 0;
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s (ratio %.3f, expected [%.2f, %.2f])",
                  what.c_str(), r, lo, hi);
    expect(r >= lo && r <= hi, buf);
  }

  /// Writes a bench's JSON report to `path` as one more check, so a write
  /// that fails (a full disk, an unwritable path) fails the run instead of
  /// leaving a truncated report behind a passing RESULT line.
  void expect_written(const std::string& path, std::string_view text) {
    const Status st = write_file(path, text);
    expect(st.is_ok(),
           "write " + path + (st.is_ok() ? "" : " (" + st.to_string() + ")"));
    if (st.is_ok()) std::printf("\nwrote %s\n", path.c_str());
  }

  /// Prints the checks; returns the process exit code. Also reports the
  /// process's peak RSS on stderr (see report_peak_rss).
  int finish() const {
    std::printf("\nShape checks:\n");
    for (const auto& [ok, what] : results_) {
      std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
    }
    std::printf("%s\n", failed_ ? "RESULT: FAIL" : "RESULT: OK");
    report_peak_rss();
    return failed_ ? 1 : 0;
  }

 private:
  /// Copies this process's own peak RSS, the `VmHWM:` line of
  /// /proc/self/status, to stderr (the goldens compare stdout only).
  /// scripts/bench_perf.sh reads it: a child the python collector spawns
  /// starts with the launcher's ru_maxrss high-water mark, so wait4 cannot
  /// report a peak below the interpreter's own.
  static void report_peak_rss() {
    std::FILE* status = std::fopen("/proc/self/status", "r");
    if (status == nullptr) return;
    char line[256];
    while (std::fgets(line, sizeof line, status) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) {
        std::fputs(line, stderr);
        break;
      }
    }
    std::fclose(status);
  }

  std::vector<std::pair<bool, std::string>> results_;
  bool failed_ = false;
};

/// printf into the end of `out`: builds a JSON report for
/// ShapeCheck::expect_written.
[[gnu::format(printf, 2, 3)]] inline void appendf(std::string& out,
                                                 const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::va_list sizing;
  va_copy(sizing, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, sizing);
  va_end(sizing);
  if (n > 0) {
    const std::size_t at = out.size();
    out.resize(at + static_cast<std::size_t>(n) + 1);
    std::vsnprintf(out.data() + at, static_cast<std::size_t>(n) + 1, fmt, args);
    out.resize(at + static_cast<std::size_t>(n));
  }
  va_end(args);
}

/// Standard 2-node rig used by the DMA benches.
struct DmaRig {
  explicit DmaRig(std::uint32_t nodes = 2)
      : cluster(sched, fabric::SubClusterConfig{
                           .spec = fabric::TopologySpec::ring(nodes),
                           .node_config = {.gpu_count = 2,
                                           .host_backing_bytes = 64ull << 20,
                                           .gpu_backing_bytes = 8ull << 20}}) {
    // Pin a window on every GPU we might address. The benches time
    // transfers and never read the bytes back, so no source data is staged.
    for (std::uint32_t n = 0; n < nodes; ++n) {
      for (int g = 0; g < 2; ++g) {
        auto ptr = cluster.node(n).gpu(g).mem_alloc(4 << 20);
        TCA_ASSERT(ptr.is_ok());
        TCA_ASSERT(cluster.driver(n).p2p().pin(g, ptr.value(), 4 << 20)
                       .is_ok());
      }
    }
  }

  /// Runs one chain and returns the TSC-measured elapsed time (the paper's
  /// measurement method).
  TimePs run(std::uint32_t driving_node,
             std::vector<peach2::DmaDescriptor> chain) {
    auto t = cluster.driver(driving_node).run_chain(std::move(chain));
    sched.run();
    return t.result();
  }

  /// Builds a `count`-deep chain of identical-size transfers with the
  /// source/destination advancing by `size` each descriptor (modulo the
  /// staging window), exactly like the evaluation's burst experiments.
  std::vector<peach2::DmaDescriptor> make_chain(
      std::uint32_t count, std::uint32_t size, peach2::DmaDirection dir,
      std::uint64_t src_base, std::uint64_t dst_base,
      std::uint64_t window = 1 << 20) {
    std::vector<peach2::DmaDescriptor> chain;
    chain.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint64_t off = (static_cast<std::uint64_t>(i) * size) %
                                (window - size + 1);
      chain.push_back({.src = src_base + off,
                       .dst = dst_base + off,
                       .length = size,
                       .direction = dir});
    }
    return chain;
  }

  double gbps(std::uint64_t bytes, TimePs elapsed) const {
    return units::gbytes_per_second(bytes, elapsed);
  }

  sim::Scheduler sched;
  fabric::SubCluster cluster;
};

inline std::string fmt_gbps(double v) { return TablePrinter::cell(v, 3); }

}  // namespace tca::bench
