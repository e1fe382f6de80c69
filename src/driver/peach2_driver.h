// PEACH2 device driver + P2P (GPUDirect) driver emulation.
//
// The paper's Section IV: "We develop two device drivers: the PEACH2 driver
// for controlling the PEACH2 board and the P2P driver for enabling GPUDirect
// Support for RDMA." This module models both at the level the evaluation
// measures:
//
//  * Peach2Driver — register-file programming over MMIO, descriptor-table
//    construction in host DRAM, doorbell/interrupt DMA flow (including the
//    TSC-measured elapsed time exactly as Section IV-A describes: read the
//    clock just before DMA start, read it again in the completion interrupt
//    handler), the mmapped PIO window, and a host-side DMA buffer.
//  * P2pDriver — pins GPU pages into the BAR1 aperture using the CUDA-style
//    token handshake so PEACH2 (or any PCIe device) can address GPU memory.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "calib/calibration.h"
#include "common/stats.h"
#include "gpu/gpu_device.h"
#include "node/compute_node.h"
#include "peach2/chip.h"
#include "peach2/descriptor.h"
#include "peach2/dmac.h"
#include "peach2/registers.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace tca::driver {

/// P2P driver: performs the 4-step GPUDirect pinning dance of Section IV-A2.
class P2pDriver {
 public:
  explicit P2pDriver(node::ComputeNode& node) : node_(node) {}

  /// Pins [ptr, ptr+len) of `gpu_index`'s memory and returns its PCIe bus
  /// address (BAR1). Steps: token lookup (cuPointerGetAttribute) then pin.
  Result<std::uint64_t> pin(int gpu_index, gpu::DevPtr ptr, std::uint64_t len);

 private:
  node::ComputeNode& node_;
};

/// Layout of the driver's reserved region inside host DRAM: the descriptor
/// table takes the last megabyte, everything below it is the DMA buffer.
struct DriverHostLayout {
  /// DMA buffer available to users of the driver (source/target of DMA).
  std::uint64_t dma_buffer_offset = 0;
  std::uint64_t dma_buffer_bytes = 0;
  /// Descriptor table written by run_chain.
  std::uint64_t desc_table_offset = 0;
  std::uint64_t desc_table_bytes = 0;

  static DriverHostLayout for_dram_size(std::uint64_t dram_bytes);
};

/// How a submission loads the DMAC: a descriptor table serialized into host
/// DRAM and fetched after the doorbell (any chain length, ~0.9 us fetch), or
/// one descriptor latched in the channel's immediate registers (no table, no
/// fetch; the small-transfer path of Section IV-A1).
enum class Source : std::uint8_t { kTable, kImmediate };

/// How a submission learns the chain finished: the completion interrupt
/// (~0.95 us to the handler), or a status word the DMAC writes back into
/// host memory while the CPU spins on it.
enum class Completion : std::uint8_t { kInterrupt, kWriteback };

/// Bounded-retry policy for Peach2Driver::run_chain_reliable. The default is
/// one attempt with no watchdog: wait for the completion however long it
/// takes. (Namespace scope so it can serve as an in-class default argument.)
struct RetryPolicy {
  /// Attempts per chain; 0 counts as 1. Past the first, the doorbell is
  /// re-rung after a backoff that doubles each time — enough for a
  /// NIOS-serviced ring failover to reroute before the next attempt.
  std::uint32_t max_attempts = 1;
  /// Per-attempt chain watchdog. 0 arms none on a single attempt and
  /// calib::kChainWatchdogPs per attempt when retrying.
  TimePs timeout_ps = 0;
  /// Backoff before the second attempt.
  TimePs backoff_base_ps = calib::kRetryBackoffBasePs;
};

/// Outcome of run_chain_reliable.
struct ChainResult {
  Status status;
  TimePs elapsed = 0;  ///< elapsed time of the final attempt
  std::uint32_t attempts = 0;
};

class Peach2Driver {
 public:
  /// `reg_base` is the bus address of the board's BAR0 (a node may carry two
  /// boards in the Fig. 10 loopback setup).
  Peach2Driver(node::ComputeNode& node, peach2::Peach2Chip& chip,
               std::uint64_t reg_base = node::layout::kPeach2RegBase);

  [[nodiscard]] node::ComputeNode& node() { return node_; }
  [[nodiscard]] peach2::Peach2Chip& chip() { return chip_; }
  [[nodiscard]] const DriverHostLayout& host_layout() const { return layout_; }
  [[nodiscard]] P2pDriver& p2p() { return p2p_; }

  // --- Register access (MMIO) ----------------------------------------------
  sim::Task<> write_register(std::uint64_t offset, std::uint64_t value);
  sim::Task<std::uint64_t> read_register(std::uint64_t offset);

  // --- DMA -------------------------------------------------------------------
  // Two calls cover the DMAC's 2x2 of Source (descriptor table or immediate
  // registers) and Completion (interrupt or status writeback): run_chain is
  // one attempt on a given channel, run_chain_reliable acquires any free
  // channel and retries. The driver keeps a shadow of each channel's
  // writeback register and programs it only when a submission wants the
  // other completion mode.

  /// One submission on `channel` (one of the kDmaChannels independent
  /// engines): loads the engine from `source` (kImmediate takes exactly one
  /// descriptor), rings over MMIO and waits for `completion`. Returns the
  /// TSC-measured elapsed time from just-before-doorbell to the completion
  /// (the paper's measurement method). `timeout_ps` > 0 arms a chain
  /// watchdog: if the completion has not arrived by then, the driver aborts
  /// the engine and the chain finishes with chain_status() == kTimedOut
  /// instead of hanging forever.
  sim::Task<TimePs> run_chain(std::vector<peach2::DmaDescriptor> chain,
                              int channel = 0, TimePs timeout_ps = 0,
                              Source source = Source::kTable,
                              Completion completion = Completion::kInterrupt);

  /// Outcome of the most recent submission on `channel`: kOk, kTimedOut
  /// (watchdog fired), or the per-descriptor DMAC error.
  [[nodiscard]] const Status& chain_status(int channel = 0) const {
    return last_status_[static_cast<std::size_t>(channel)];
  }

  /// Acquires a free channel (suspending while all are busy), runs the
  /// chain on it under `policy` and releases it. A failed attempt is retried
  /// after backoff until the attempts run out; `abort_check`, when set, is
  /// consulted before each retry and a non-OK return stops the loop with
  /// that status — how the API surfaces a fabric partition as a prompt
  /// kUnreachable instead of burning the remaining attempts' deadlines.
  /// Returns the final status plus the attempt count.
  sim::Task<ChainResult> run_chain_reliable(
      std::vector<peach2::DmaDescriptor> chain, RetryPolicy policy = {},
      Source source = Source::kTable,
      Completion completion = Completion::kInterrupt,
      std::function<Status()> abort_check = {});

  // --- PIO --------------------------------------------------------------------
  /// Store through the mmapped window: `global_addr` is a TCA global
  /// address (the window is identity-mapped onto the global space).
  sim::Task<> pio_store(std::uint64_t global_addr,
                        std::span<const std::byte> data);

  /// Convenience: 32-bit PIO store (the paper's 4-byte latency probe).
  sim::Task<> pio_store_u32(std::uint64_t global_addr, std::uint32_t value);

  // --- Helpers -----------------------------------------------------------------
  /// Global TCA address of this node's DMA buffer at `offset`.
  [[nodiscard]] std::uint64_t host_buffer_global(std::uint64_t offset) const;

  /// Global TCA address of pinned GPU memory (gpu_index 0/1 only: PEACH2
  /// reaches only the two GPUs on its own socket).
  [[nodiscard]] std::uint64_t gpu_global(int gpu_index,
                                         gpu::DevPtr ptr) const;

  /// Global TCA address inside this chip's internal RAM.
  [[nodiscard]] std::uint64_t internal_global(std::uint64_t offset) const;

  // --- Statistics -------------------------------------------------------------
  /// DMA chains completed through this driver (any completion mode).
  [[nodiscard]] std::uint64_t chains_run() const { return chains_run_; }
  [[nodiscard]] std::uint64_t pio_stores() const { return pio_stores_; }
  [[nodiscard]] std::uint64_t pio_bytes() const { return pio_bytes_; }
  /// Doorbell-to-completion latency samples (the paper's TSC measurement);
  /// recorded only while obs::sampling_enabled().
  [[nodiscard]] const SampleSeries& chain_latency_ps() const {
    return chain_latency_;
  }
  /// Chain watchdog expirations (each one aborted an engine).
  [[nodiscard]] std::uint64_t watchdog_timeouts() const { return timeouts_; }
  /// Doorbell re-rings performed by run_chain_reliable.
  [[nodiscard]] std::uint64_t chain_retries() const { return retries_; }
  /// Error interrupts serviced (AER-flavored kErrStatus raises).
  [[nodiscard]] std::uint64_t error_irqs() const { return error_irqs_; }
  /// Every error-status bit ever serviced by the error ISR (diagnostics).
  [[nodiscard]] std::uint64_t error_bits_seen() const {
    return error_bits_seen_;
  }

 private:
  /// Per-channel slice of the descriptor-table region; the completion
  /// writeback word sits at the slice's tail.
  [[nodiscard]] std::uint64_t table_offset(int channel) const;
  [[nodiscard]] std::uint64_t table_slice_bytes() const;
  /// Host-DRAM offset of `channel`'s completion writeback word.
  [[nodiscard]] std::uint64_t writeback_offset(int channel) const;
  sim::Task<> write_table(std::span<const peach2::DmaDescriptor> chain,
                          int channel);
  sim::Task<> error_isr(std::uint64_t bits);

  node::ComputeNode& node_;
  peach2::Peach2Chip& chip_;
  std::uint64_t reg_base_;
  DriverHostLayout layout_;
  P2pDriver p2p_;
  std::array<std::unique_ptr<sim::Trigger>, 4> dma_done_;
  std::array<bool, 4> dma_in_flight_{};
  sim::Semaphore channel_sem_;
  std::vector<int> free_channels_;

  std::array<Status, 4> last_status_{};
  /// Shadow of each channel's kDmaBankWriteback (0: interrupt mode).
  std::array<std::uint64_t, 4> writeback_reg_{};

  std::uint64_t chains_run_ = 0;
  std::uint64_t pio_stores_ = 0;
  std::uint64_t pio_bytes_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t error_irqs_ = 0;
  std::uint64_t error_bits_seen_ = 0;
  SampleSeries chain_latency_;
};

}  // namespace tca::driver
