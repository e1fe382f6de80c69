// CPU-core agent: MMIO stores/loads and host-memory polling.
//
// Models the software-visible costs of the driver-level operations the paper
// measures with the TSC: uncached stores into the mmapped PEACH2 window (PIO
// communication, Section III-F1), MMIO register reads, and the polling loop
// of the latency experiment (Section IV-B1).
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "calib/calibration.h"
#include "memory/dram.h"
#include "node/root_complex.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace tca::node {

class CpuAgent {
 public:
  CpuAgent(sim::Scheduler& sched, RootComplex& rc, mem::Dram& host_dram,
           std::uint64_t host_base);

  [[nodiscard]] pcie::DeviceId device_id() const { return rc_.cpu_device_id(); }
  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }

  /// Uncached MMIO store (posted). Splits into MaxPayloadSize TLPs for large
  /// spans (write-combining); completes when the last TLP is issued — posted
  /// writes do not wait for delivery.
  sim::Task<> mmio_store(std::uint64_t bus_addr,
                         std::span<const std::byte> data);

  /// MMIO load: issues an MRd and suspends until all completions return.
  sim::Task<std::vector<std::byte>> mmio_load(std::uint64_t bus_addr,
                                              std::uint32_t length);

  /// Direct (cache-coherent) host memory access; no TLPs involved.
  void write_host(std::uint64_t offset, std::span<const std::byte> data) {
    host_dram_.write(offset, data);
  }
  void read_host(std::uint64_t offset, std::span<std::byte> out) const {
    host_dram_.read(offset, out);
  }

  /// Polls a host-memory word every kCpuPollIterationPs until it differs
  /// from `initial`; returns the detection time (includes the TSC-read
  /// cost). This is exactly step 6 of the paper's loopback latency
  /// measurement.
  sim::Task<TimePs> poll_host_until_change(std::uint64_t offset,
                                           std::uint32_t initial);

  /// Total polling-loop iterations across all poll_host_until_change calls
  /// (each iteration burns kCpuPollIterationPs of CPU).
  [[nodiscard]] std::uint64_t poll_iterations() const {
    return poll_iterations_;
  }

 private:
  void on_completion(const pcie::Tlp& cpl);

  struct PendingLoad {
    std::vector<std::byte> buffer;
    std::uint32_t received = 0;
    sim::Trigger* done = nullptr;
  };

  sim::Scheduler& sched_;
  RootComplex& rc_;
  mem::Dram& host_dram_;
  std::uint64_t host_base_;
  sim::Semaphore load_tags_;
  std::unordered_map<std::uint8_t, PendingLoad> pending_loads_;
  std::uint8_t next_tag_ = 0;
  std::uint64_t poll_iterations_ = 0;
};

}  // namespace tca::node
