// GPU device model (NVIDIA K20-class, Kepler).
//
// The GPU participates in the TCA evaluation exclusively through its PCIe
// behaviour (Section III-C / IV-A2):
//
//  * BAR1 aperture: device memory mapped into PCIe space at page granularity
//    by the P2P driver (GPUDirect Support for RDMA). Only *pinned* pages are
//    accessible; access to unpinned pages is dropped and counted, matching
//    the Unsupported-Request semantics of real hardware.
//  * Posted writes sink at line rate: "the GPU is assumed to be of
//    sufficient size for the request queue" (Fig. 12 discussion).
//  * Reads are served by a serialized translation+fetch pipeline at
//    kGpuReadServicePs per 256 B chunk, reproducing the paper's asymmetry:
//    "the maximum DMA read performance is only 830 Mbytes/sec".
//  * A copy engine provides cudaMemcpy-style H2D/D2H transfers with fixed
//    driver overhead plus rate; only the conventional-path baseline uses it.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "calib/calibration.h"
#include "common/error.h"
#include "memory/dram.h"
#include "pcie/link.h"
#include "sim/ring.h"
#include "sim/scheduler.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace tca::gpu {

/// Device-memory pointer (byte offset into GDDR).
using DevPtr = std::uint64_t;

/// Opaque P2P token pair, mirroring CUDA's CU_POINTER_ATTRIBUTE_P2P_TOKENS.
/// Obtained per allocation and consumed by the P2P driver when pinning.
struct P2pToken {
  std::uint64_t p2p_token = 0;
  std::uint32_t va_space_token = 0;
};

struct GpuConfig {
  std::uint64_t memory_bytes = 5ull << 30;  ///< K20: 5 GB GDDR5
  std::uint64_t bar1_base = 0;              ///< set by the node's address map
  int socket = 0;                           ///< CPU socket the GPU hangs off
};

class GpuDevice : public pcie::TlpSink {
 public:
  GpuDevice(sim::Scheduler& sched, pcie::DeviceId id, const GpuConfig& config);

  [[nodiscard]] pcie::DeviceId id() const { return id_; }
  [[nodiscard]] const GpuConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint64_t bar1_base() const { return cfg_.bar1_base; }

  /// Attaches the device side of the PCIe link toward the root complex.
  void attach(pcie::LinkPort& port);

  // --- CUDA-runtime-like surface (what the TCA software stack uses) -------

  /// cuMemAlloc: bump allocation out of GDDR.
  Result<DevPtr> mem_alloc(std::uint64_t bytes);

  /// cuPointerGetAttribute(CU_POINTER_ATTRIBUTE_P2P_TOKENS, ...).
  Result<P2pToken> get_p2p_token(DevPtr ptr) const;

  /// P2P-driver pin: exposes [ptr, ptr+len) through BAR1 at page
  /// granularity. Returns the PCIe bus address of `ptr`.
  Result<std::uint64_t> pin_pages(const P2pToken& token, DevPtr ptr,
                                  std::uint64_t len);

  [[nodiscard]] bool is_pinned(DevPtr ptr, std::uint64_t len) const;

  // --- Direct (functional) access, used by tests and kernels --------------

  void poke(DevPtr ptr, std::span<const std::byte> data) {
    gddr_.write(ptr, data);
  }
  void peek(DevPtr ptr, std::span<std::byte> out) const {
    gddr_.read(ptr, out);
  }
  [[nodiscard]] std::span<const std::byte> view(DevPtr ptr,
                                                std::uint64_t len) const {
    return gddr_.view(ptr, len);
  }

  // --- Copy engine (cudaMemcpy semantics, used by the baseline path) ------

  /// Host-to-device copy: fixed overhead + bytes at the engine rate.
  sim::Task<> memcpy_h2d(std::span<const std::byte> src, DevPtr dst);

  /// Device-to-host copy.
  sim::Task<> memcpy_d2h(DevPtr src, std::span<std::byte> dst);

  // --- TlpSink -------------------------------------------------------------

  void on_tlp(pcie::TlpPtr tlp, pcie::LinkPort& port) override;

  // --- Introspection -------------------------------------------------------

  [[nodiscard]] std::uint64_t access_errors() const { return access_errors_; }
  [[nodiscard]] std::uint64_t writes_received() const { return writes_rx_; }
  [[nodiscard]] std::uint64_t reads_received() const { return reads_rx_; }

 private:
  sim::Task<> read_service_loop();
  void send_or_queue(pcie::TlpPtr tlp);
  void pump_tx();

  /// Translates a BAR1 bus address to a GDDR offset; nullopt if out of the
  /// aperture or not pinned.
  [[nodiscard]] std::optional<DevPtr> translate(std::uint64_t bus_addr,
                                                std::uint32_t len) const;

  sim::Scheduler& sched_;
  pcie::DeviceId id_;
  GpuConfig cfg_;
  mem::Dram gddr_;
  pcie::LinkPort* port_ = nullptr;

  std::uint64_t alloc_cursor_ = 0;
  std::vector<bool> pinned_;  // one flag per kGpuPinPageBytes page

  sim::Ring<pcie::TlpPtr> read_queue_;
  sim::Trigger read_pending_;
  sim::Task<> read_task_;

  sim::Ring<pcie::TlpPtr> tx_queue_;

  std::uint64_t access_errors_ = 0;
  std::uint64_t writes_rx_ = 0;
  std::uint64_t reads_rx_ = 0;
};

}  // namespace tca::gpu
