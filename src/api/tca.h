// Public TCA programming interface (Section III-H).
//
// "CUDA-like APIs are very useful for expanding existing CUDA applications
//  to the TCA sub-cluster": the user addresses memory by (node ID, device,
//  offset) and moves data with a cudaMemcpyPeer-style call that works across
//  nodes. Under the hood the runtime picks PIO for short host-sourced
//  messages and the chaining DMA engine otherwise; block-stride transfers
//  map onto descriptor chains ("a series of bulk transfers, such as block
//  transfer and block-stride transfer, are effective by using the chaining
//  DMA mechanism").
//
// Everything here is simulation-clocked: calls are coroutines that complete
// in simulated time, and data really moves (verify with read()/write()).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "fabric/sub_cluster.h"
#include "obs/metrics.h"
#include "peach2/tca_layout.h"
#include "sim/task.h"

namespace tca::api {

struct TcaConfig {
  /// Ring, dual ring, or 1D/2D/3D torus (see fabric::TopologySpec). The
  /// default is the paper's 2-node ring.
  fabric::TopologySpec spec = fabric::TopologySpec::ring(2);
  node::NodeConfig node_config = {
      .gpu_count = 2,
      .host_backing_bytes = 64ull << 20,
      .gpu_backing_bytes = 16ull << 20,
  };
  /// Fault campaign applied at construction (see fabric::FaultPlan) and the
  /// ring-failover switch, forwarded to the sub-cluster builder.
  fabric::FaultPlan fault_plan;
  bool enable_failover = true;
  double cable_bit_error_rate = 0;
};

/// A registered communication buffer: host memory or pinned GPU memory on a
/// specific node. Copyable value; the Runtime owns the storage.
struct Buffer {
  std::uint32_t node = 0;
  peach2::TcaTarget target = peach2::TcaTarget::kHost;
  /// Offset within the target's TCA block (for GPU buffers this equals the
  /// device pointer; for host buffers an offset in the driver DMA region).
  std::uint64_t block_offset = 0;
  std::uint64_t size = 0;

  [[nodiscard]] bool is_host() const {
    return target == peach2::TcaTarget::kHost;
  }
  /// GPU ordinal for GPU-backed buffers; nullopt for host (and internal)
  /// targets. Callers must check — a host buffer has no GPU index.
  [[nodiscard]] std::optional<int> gpu_index() const {
    if (target == peach2::TcaTarget::kGpu0) return 0;
    if (target == peach2::TcaTarget::kGpu1) return 1;
    return std::nullopt;
  }
};

/// Per-call counters the Runtime keeps about its own API surface: operation
/// mix, the PIO-vs-DMA policy split, and (while obs::sampling_enabled())
/// end-to-end memcpy latency samples.
struct ApiMetrics {
  std::uint64_t memcpy_ops = 0;
  std::uint64_t memcpy_bytes = 0;
  std::uint64_t pio_ops = 0;  ///< memcpy_pio and short memcpy_peer copies
  std::uint64_t dma_ops = 0;  ///< memcpy_peer DMA and memcpy_peer_reliable
  std::uint64_t batches = 0;
  std::uint64_t batch_ops = 0;
  std::uint64_t block_stride_ops = 0;
  std::uint64_t notify_ops = 0;
  std::uint64_t wait_flag_ops = 0;
  SampleSeries memcpy_latency_ps;
};

class Runtime {
 public:
  /// Validates `config` without building anything. Per-topology shape
  /// rules come from fabric::TopologySpec::validate() — rings keep the
  /// paper's power-of-two [2, 16] bound, tori accept shapes like 4x4x4 and
  /// name the violated dimension on error. On top of that: the address
  /// window must partition across the nodes, per-node GPU count must be
  /// 1..4, and the backing stores must be large enough for the driver's
  /// host layout. Returns the first violation.
  static Status validate_config(const TcaConfig& config);

  /// Fallible construction: validates, then builds. Prefer this over the
  /// constructor — an invalid config comes back as a Status instead of an
  /// assertion failure inside the fabric builder.
  static Result<Runtime> create(sim::Scheduler& sched,
                                const TcaConfig& config = {});

  /// Asserting construction (legacy surface); delegates to the same
  /// validation as create() and aborts on violation.
  explicit Runtime(sim::Scheduler& sched, const TcaConfig& config = {});

  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }
  [[nodiscard]] fabric::SubCluster& cluster() { return *cluster_; }
  [[nodiscard]] std::uint32_t node_count() const { return cluster_->size(); }

  /// Below/equal this byte count, host-sourced copies use PIO stores
  /// instead of a DMA descriptor (short-message latency optimization).
  static constexpr std::uint64_t kPioThreshold = 512;

  // --- Allocation -----------------------------------------------------------

  /// Pinned host communication buffer on `node`.
  Result<Buffer> alloc_host(std::uint32_t node, std::uint64_t bytes);

  /// GPU buffer on `node`: cuMemAlloc + P2P pin (GPUDirect). `gpu` must be
  /// 0 or 1 — PEACH2 reaches only the GPUs on its own socket.
  Result<Buffer> alloc_gpu(std::uint32_t node, int gpu, std::uint64_t bytes);

  // --- Functional access (what a kernel / the host app would see) -----------

  void write(const Buffer& buf, std::uint64_t offset,
             std::span<const std::byte> data);
  void read(const Buffer& buf, std::uint64_t offset,
            std::span<std::byte> out) const;

  // --- Communication ----------------------------------------------------------

  /// cudaMemcpyPeer extended with node IDs: copies `bytes` from src to dst,
  /// driven by the source node's PEACH2. Works across nodes and between any
  /// host/GPU combination; remote *reads* are rejected at build time by the
  /// put-only policy (the source must live on the driving node).
  sim::Task<Status> memcpy_peer(Buffer dst, std::uint64_t dst_off, Buffer src,
                                std::uint64_t src_off, std::uint64_t bytes);

  /// One entry of a batched transfer (see memcpy_peer_batch).
  struct CopyOp {
    Buffer dst;
    std::uint64_t dst_off = 0;
    Buffer src;
    std::uint64_t src_off = 0;
    std::uint64_t bytes = 0;
  };

  /// Executes several peer copies as a single descriptor chain — one
  /// doorbell, one table fetch, one interrupt ("a series of bulk transfers
  /// ... are effective by using the chaining DMA mechanism"). All sources
  /// must live on `driving_node`; destinations may be anywhere. Zero-byte
  /// copies are checked and left out of the chain. `policy` gives the
  /// per-attempt deadline and bounded retry (the default waits forever on
  /// one attempt); between attempts a destination the fabric manager
  /// reports partitioned away ends the retry with kUnreachable.
  /// `retries_out`, when non-null, receives the doorbell re-rings needed.
  sim::Task<Status> memcpy_peer_batch(std::uint32_t driving_node,
                                      std::vector<CopyOp> ops,
                                      driver::RetryPolicy policy = {},
                                      std::uint32_t* retries_out = nullptr);

  /// Block-stride transfer via one descriptor chain: `count` blocks of
  /// `block_bytes`, advancing src/dst by their strides between blocks.
  sim::Task<Status> memcpy_block_stride(Buffer dst, std::uint64_t dst_off,
                                        std::uint64_t dst_stride, Buffer src,
                                        std::uint64_t src_off,
                                        std::uint64_t src_stride,
                                        std::uint64_t block_bytes,
                                        std::uint32_t count);

  // --- Synchronization flags ---------------------------------------------------

  /// Writes a 32-bit flag into a (usually remote) host buffer via PIO.
  /// `from_node` is the storing side. Buffer is taken by value — a
  /// reference coroutine parameter could dangle across suspension.
  sim::Task<> notify(std::uint32_t from_node, Buffer host_flag,
                     std::uint64_t offset, std::uint32_t value);

  /// Polls a local host flag until it is >= `expected` — the right wait for
  /// monotonic sequence counters, where a waiter may arrive after several
  /// increments. `timeout_ps` bounds the wait (0 = poll forever); expiry
  /// returns kTimedOut instead of hanging the simulation.
  sim::Task<Status> wait_flag_ge(Buffer host_flag, std::uint64_t offset,
                                 std::uint32_t expected,
                                 TimePs timeout_ps = 0);

  /// Forced-PIO copy of any size: CPU MMIO stores through the mmapped
  /// window, no DMA engine involvement (no doorbell/table-fetch/interrupt
  /// cost). The source must be host-resident — the CPU issues the stores.
  /// This is the eager-message transport for payloads around the paper's
  /// ~2 KB PIO/DMA crossover, above kPioThreshold where memcpy_peer would
  /// switch to DMA on its own.
  sim::Task<Status> memcpy_pio(Buffer dst, std::uint64_t dst_off, Buffer src,
                               std::uint64_t src_off, std::uint64_t bytes);

  /// Single peer copy under a recovery policy, on the short DMA path: one
  /// pipelined descriptor programmed into an acquired channel's immediate
  /// registers, completed by the DMAC's status writeback that the CPU
  /// polls. No descriptor table is written or fetched and no interrupt is
  /// taken, which is why coll::Communicator's ring puts use it. `policy`
  /// gives the per-attempt deadline and bounded retry as in
  /// memcpy_peer_batch. `retries_out`, when non-null, receives the number
  /// of re-kicks the copy needed. memcpy_peer keeps the table + interrupt
  /// path the paper measured.
  sim::Task<Status> memcpy_peer_reliable(Buffer dst, std::uint64_t dst_off,
                                         Buffer src, std::uint64_t src_off,
                                         std::uint64_t bytes,
                                         driver::RetryPolicy policy,
                                         std::uint32_t* retries_out = nullptr);

  // --- Observability -----------------------------------------------------------

  [[nodiscard]] const ApiMetrics& api_metrics() const { return metrics_; }

  /// Exports the API-level counters (`api.*`) plus the whole fabric's
  /// hardware counters (see fabric::SubCluster::export_metrics) into `reg`.
  void export_metrics(obs::MetricRegistry& reg) const;

 private:
  [[nodiscard]] std::uint64_t global_addr(const Buffer& buf,
                                          std::uint64_t offset) const;
  Status validate(const Buffer& buf, std::uint64_t offset,
                  std::uint64_t bytes) const;
  /// validate() for `count` blocks of `block_bytes`, `stride` apart from
  /// `offset` (the first block even when `count` is 0): the block-stride
  /// extent, computed without wrapping.
  Status validate_blocks(const Buffer& buf, std::uint64_t offset,
                         std::uint64_t stride, std::uint64_t block_bytes,
                         std::uint32_t count) const;
  /// kUnreachable when the fabric manager reports `to` partitioned away
  /// from `from` (see fabric::SubCluster::reachable). Checked before every
  /// transfer submission and between retry attempts, so a genuine
  /// partition surfaces promptly instead of as a full deadline timeout.
  Status check_reachable(std::uint32_t from, std::uint32_t to) const;
  /// The prologue of every copy call, run before it counts or submits
  /// anything: `count` blocks of `op.bytes` (`dst_stride`/`src_stride`
  /// apart) inside both buffers, then `op.dst` reachable from `op.src`.
  Status check_copy(const CopyOp& op, std::uint64_t dst_stride = 0,
                    std::uint64_t src_stride = 0,
                    std::uint32_t count = 1) const;
  void count_copy(std::uint64_t bytes, bool pio);
  [[nodiscard]] peach2::DmaDescriptor descriptor(const CopyOp& op) const;

  /// memcpy_peer's DMA body: one descriptor, table-loaded and
  /// interrupt-completed, with the latency sample the PIO body takes too.
  sim::Task<Status> memcpy_dma(CopyOp op);
  /// The one DMA submission every copy call makes: runs `chain` on
  /// `node`'s driver under `policy`. A retrying policy ends early with
  /// kUnreachable once a destination of the chain is partitioned away.
  sim::Task<Status> submit(std::uint32_t node,
                           std::vector<peach2::DmaDescriptor> chain,
                           driver::RetryPolicy policy, driver::Source source,
                           driver::Completion completion,
                           std::uint32_t* retries_out);

  sim::Scheduler& sched_;
  // unique_ptr: the sub-cluster schedules fault events and NIOS listeners
  // that capture its address, so it must stay put while Runtime moves
  // (Result<Runtime> construction).
  std::unique_ptr<fabric::SubCluster> cluster_;
  std::vector<std::uint64_t> host_alloc_cursor_;
  ApiMetrics metrics_;
};

}  // namespace tca::api
