// NCCL-style collectives over the TCA fabric (`tca::coll`).
//
// The paper's claim is that PEACH2's PCIe-native RDMA-put plus chaining DMA
// make inter-GPU communication cheap enough for tightly coupled algorithms
// across a sub-cluster; this layer turns that primitive into a communicator
// library so applications stop re-implementing ring loops by hand (the
// examples used to). APEnet+ (Ammendola et al.) judges the same class of
// FPGA interconnect by its GPU collective performance. This layer offers
// the two collectives the benches, examples and tools run: allreduce and
// halo exchange.
//
// What the Communicator does that the ad-hoc example loops could not:
//
//  * Message-size algorithm selection. Host-resident payloads at or below
//    Communicator::kEagerThreshold go through the PIO/eager path (CPU MMIO
//    stores into per-peer mailbox slots); everything else uses chained-DMA
//    ring pipelines. The ~2 KB default mirrors the paper's PIO/DMA
//    crossover: an eager put of 2 KB costs ~8 TLPs x 150 ns issue, right at
//    the DMA engine's ~2.1 us fixed activation cost.
//  * Chunked pipelining. Large buffers move around the ring in
//    pipeline_seg_bytes segments through per-rank GPU staging slots with
//    credit-based flow control, so the DMA of segment i overlaps the
//    cudaMemcpy staging of segment i+1 and ring steps overlap across ranks.
//  * Host-carried relay. In every ring schedule the chunk a rank sends at
//    step s+1 is exactly the chunk it received (and folded) at step s — and
//    the fold already materialized those bytes host-side. Steps after the
//    first therefore DMA straight from the carried host copy instead of
//    paying a fresh cudaMemcpy D2H per step, which removes the staging
//    latency from the pipeline's critical path. This is the move that keeps
//    the 3.66 GB/s TCA link ahead of the dual-rail IB baseline at bulk
//    sizes, and it leaves the floating-point fold order untouched.
//  * GPU-read avoidance. The fabric DMA-reads GPU memory at the paper's
//    830 MB/s BAR1 ceiling; large GPU-sourced sends are staged D2H into a
//    double-buffered host bounce buffer and DMA'd from host at wire rate
//    (writes into the destination GPU sink at line rate either way).
//  * Fault-aware completion. Every put runs under CollConfig::sync
//    (deadline + bounded retry, PR 3 machinery) and every flag wait under
//    CollConfig::flag_timeout_ps, so a collective either survives a link
//    flap deterministically (ring failover + doorbell retry) or returns
//    kTimedOut instead of wedging the simulation.
//  * Observability. Per-collective counters and latency series (CollMetrics,
//    exported as `coll.*`) and chrome://tracing spans per rank.
//
// Usage contract (standard communicator semantics):
//  * rank r lives on node r; buffers passed to rank-r calls must be on node r.
//  * Every rank issues the same sequence of collectives with matching
//    shape parameters; the communicator detects divergence deterministically
//    and returns kInvalidArgument on the rank that diverged.
//  * Collectives on one communicator are issued sequentially per rank
//    (no overlapping calls by the same rank).
//  * After a collective returns a failure the communicator's internal
//    sequence state may be torn; create a fresh communicator to continue.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "api/tca.h"
#include "common/stats.h"

namespace tca::coll {

/// One purpose's words in a rank's row of flag words: [base, base + count).
struct FlagRegion {
  std::uint32_t base;
  std::uint32_t count;
};

/// True when the regions are pairwise disjoint and each one lies inside a
/// row of `row_words` words. communicator.cpp static_asserts this over the
/// flag words every collective uses, for every world size a fabric accepts.
constexpr bool flag_regions_partition(std::span<const FlagRegion> regions,
                                      std::uint32_t row_words) {
  for (std::size_t i = 0; i < regions.size(); ++i) {
    const FlagRegion& a = regions[i];
    const std::uint64_t a_end = std::uint64_t{a.base} + a.count;
    if (a_end > row_words) return false;
    for (std::size_t j = i + 1; j < regions.size(); ++j) {
      const FlagRegion& b = regions[j];
      if (a.base < std::uint64_t{b.base} + b.count && b.base < a_end) {
        return false;
      }
    }
  }
  return true;
}

/// Which path a collective takes for a given payload (see
/// Communicator::select_algorithm).
enum class Algorithm {
  kEager,  ///< PIO mailbox deposits (host-resident, small)
  kRing,   ///< chained-DMA ring pipeline through GPU staging
};

struct CollConfig {
  /// Ring pipeline segment: staging-slot granularity and the unit of
  /// D2H/DMA overlap. Must be a multiple of 8.
  std::uint64_t pipeline_seg_bytes = 64ull << 10;
  /// Staging slots per rank (credit depth of each ring link). >= 2.
  std::uint32_t staging_slots = 4;
  /// Recovery policy for every DMA put this communicator issues.
  driver::RetryPolicy sync;
  /// Bound on every flag wait (0 = poll forever). Set this alongside
  /// `sync` in fault campaigns so a dead peer surfaces as kTimedOut.
  TimePs flag_timeout_ps = 0;
};

/// Raw per-communicator counters plus (while obs::sampling_enabled())
/// per-algorithm latency series. Counters count per-rank calls: one
/// n-rank allreduce adds n to allreduce_ops.
struct CollMetrics {
  std::uint64_t allreduce_ops = 0;
  std::uint64_t halo_ops = 0;
  /// Payload bytes this communicator pushed through the fabric (eager
  /// deposits + ring segments; excludes flags and staging copies).
  std::uint64_t bytes = 0;
  std::uint64_t eager_ops = 0;  ///< collectives routed to the eager path
  std::uint64_t ring_ops = 0;   ///< collectives routed to the ring path
  /// Bytes staged D2H to avoid the GPU BAR1 read ceiling.
  std::uint64_t staged_d2h_bytes = 0;
  /// Bytes sent from the host-carried copy of a previous step's fold,
  /// skipping the per-step D2H a naive ring pipeline would pay.
  std::uint64_t host_carry_bytes = 0;
  /// Doorbell re-rings across all puts (CollConfig::sync retries).
  std::uint64_t put_retries = 0;
  SampleSeries allreduce_eager_latency_ps;
  SampleSeries allreduce_ring_latency_ps;
  SampleSeries halo_latency_ps;
};

/// Neighbor/halo exchange descriptor: where this rank's outgoing boundary
/// rows live and where the neighbors' rows land, all within `buf` on the
/// calling rank. `bytes` (per direction) must match across ranks and fit a
/// staging slot (<= CollConfig::pipeline_seg_bytes); offsets are local to
/// each rank and may differ.
struct HaloSpec {
  api::Buffer buf;
  std::uint64_t send_to_next_off = 0;
  std::uint64_t send_to_prev_off = 0;
  std::uint64_t recv_from_prev_off = 0;
  std::uint64_t recv_from_next_off = 0;
  std::uint64_t bytes = 0;
};

/// A communicator over all nodes of the runtime's sub-cluster (rank == node
/// ID). Owns per-rank GPU staging, host bounce/eager buffers and the flag
/// words every collective synchronizes through. Collectives are coroutines:
/// spawn one call per rank and run the scheduler.
class Communicator {
 public:
  /// PIO/eager vs chained-DMA crossover in bytes (paper: ~2 KB). Payloads
  /// at or below this — when host-resident — use the eager path.
  static constexpr std::uint64_t kEagerThreshold = 2048;
  /// GPU-resident sends at or above this stage through the host bounce
  /// buffer instead of letting the DMA engine read BAR1 at 830 MB/s.
  static constexpr std::uint64_t kGpuStagingMin = 8ull << 10;

  /// Allocates the per-rank communication resources out of `rt`. Keep the
  /// returned Communicator at a stable address while collectives are in
  /// flight (in-flight calls hold `this`).
  static Result<Communicator> create(api::Runtime& rt, CollConfig config = {});

  Communicator(Communicator&&) = default;
  Communicator& operator=(Communicator&&) = delete;
  Communicator(const Communicator&) = delete;
  Communicator& operator=(const Communicator&) = delete;

  [[nodiscard]] std::uint32_t ranks() const { return ranks_; }
  [[nodiscard]] const CollConfig& config() const { return cfg_; }

  /// `rank`'s successor and predecessor in the logical ring every ring
  /// collective and halo exchange rides (see ring_pos): rank +- 1 on a ring,
  /// a boustrophedon walk on a torus.
  [[nodiscard]] std::uint32_t ring_next(std::uint32_t rank) const {
    return rank_at(ring_pos_[rank] + 1);
  }
  [[nodiscard]] std::uint32_t ring_prev(std::uint32_t rank) const {
    return rank_at(ring_pos_[rank] + ranks_ - 1);
  }

  /// The size-based path choice, identical on every rank for matching
  /// arguments: eager needs a host-resident payload at or below the
  /// threshold (PIO stores cannot source GPU memory); everything else
  /// rides the chained-DMA ring.
  [[nodiscard]] Algorithm select_algorithm(std::uint64_t payload_bytes,
                                           bool host_resident) const {
    return (host_resident && payload_bytes <= kEagerThreshold)
               ? Algorithm::kEager
               : Algorithm::kRing;
  }

  /// In-place allreduce (sum of doubles): two-phase ring (reduce-scatter +
  /// allgather) or, for small host payloads, eager gather-to-root +
  /// re-broadcast. Both paths apply floating-point additions in the exact
  /// order of baseline::Collectives' ring, so results are bitwise
  /// interchangeable with the conventional-stack library.
  sim::Task<Status> allreduce_sum(std::uint32_t rank, api::Buffer buf,
                                  std::uint64_t offset, std::uint64_t count);

  /// Halo exchange with both ring neighbors: sends two boundary regions,
  /// receives two, with credit flow control instead of a global barrier.
  sim::Task<Status> neighbor_exchange(std::uint32_t rank, HaloSpec spec);

  [[nodiscard]] const CollMetrics& metrics() const { return metrics_; }

  /// Exports `coll.*` counters/histograms, then delegates to
  /// api::Runtime::export_metrics (which pulls `api.*` and the whole
  /// fabric's hardware counters via SubCluster::export_metrics).
  void export_metrics(obs::MetricRegistry& reg) const;

 private:
  /// How ring_recv folds an arriving segment into the user buffer.
  enum class RecvMode { kCopy, kAccumulate };

  /// Signature of one collective call, compared across ranks to detect a
  /// diverging op sequence deterministically.
  struct OpSig {
    int kind = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    bool host = false;
    [[nodiscard]] bool operator==(const OpSig&) const = default;
  };

  struct RankState {
    api::Buffer staging;  ///< GPU: (slots + 2 halo) x slot_stride
    api::Buffer bounce;   ///< host: 2 x slot_stride staging double buffer
    api::Buffer eager;    ///< host: ranks x eager_slot mailbox row
    api::Buffer flags;    ///< host: flag words, 8-byte stride
    std::string track;    ///< trace track name ("coll.rank<r>")
    std::uint32_t ring_tx_seq = 0;  ///< segments sent to next
    std::uint32_t ring_rx_seq = 0;  ///< segments consumed from prev
    std::uint32_t halo_seq = 0;
    std::uint64_t op_index = 0;  ///< position in the communicator op log
    /// ring_send's GPU-to-host staging copy of one segment.
    std::vector<std::byte> d2h_stage;
  };

  Communicator(api::Runtime& rt, CollConfig cfg);

  static Status validate_config(const CollConfig& cfg);
  Status validate_buffer(std::uint32_t rank, const api::Buffer& buf,
                         std::uint64_t offset, std::uint64_t bytes) const;
  /// Records/compares the rank's next op signature (see OpSig).
  Status check_op(std::uint32_t rank, OpSig sig);

  /// wait_flag_ge on `rank`'s flag word, bounded by cfg_.flag_timeout_ps.
  sim::Task<Status> wait_word_ge(std::uint32_t rank, std::uint32_t word,
                                 std::uint32_t expected);
  /// PIO-stores `value` into `dst_rank`'s flag word, driven by `from`.
  sim::Task<> signal(std::uint32_t from, std::uint32_t dst_rank,
                     std::uint32_t word, std::uint32_t value);

  /// One DMA put into `dst_rank`'s staging at `staging_off`, under the
  /// communicator's recovery policy; accumulates retry metrics.
  sim::Task<Status> put_seg(api::Buffer src, std::uint64_t src_off,
                            std::uint32_t dst_rank, std::uint64_t staging_off,
                            std::uint64_t bytes);

  /// Sends [src_off, src_off+bytes) to the ring successor, segment by
  /// segment with credit flow control; overlaps D2H staging of segment i+1
  /// with the DMA chain of segment i (double-buffered bounce). When
  /// `host_src` is non-null it holds a host-resident copy of the payload
  /// (the carry from the previous ring step's fold) and the per-segment
  /// D2H staging is skipped entirely.
  sim::Task<Status> ring_send(std::uint32_t rank, api::Buffer buf,
                              std::uint64_t src_off, std::uint64_t bytes,
                              const std::vector<std::byte>* host_src);
  /// Receives `bytes` from the ring predecessor into `buf` at `dst_off`,
  /// acking each consumed staging slot. When `carry_out` is non-null the
  /// post-fold bytes are also kept there for the next step's ring_send.
  sim::Task<Status> ring_recv(std::uint32_t rank, api::Buffer buf,
                              std::uint64_t dst_off, std::uint64_t bytes,
                              RecvMode mode,
                              std::vector<std::byte>* carry_out);
  /// One ring phase: n-1 steps, step s sends chunk (rank+shift-s) mod n and
  /// folds chunk (rank+shift-s-1) mod n. shift 0 + kAccumulate is the
  /// baseline reduce-scatter schedule; shift 1 + kCopy its allgather. In
  /// every such schedule step s+1 sends the chunk step s received, so when
  /// `carry` is non-null the folded bytes ride host-side from one step's
  /// recv to the next step's send (and across the phases of an allreduce):
  /// on entry *carry may hold the first chunk to send, on exit it holds the
  /// last chunk received.
  sim::Task<Status> ring_phase(std::uint32_t rank, api::Buffer buf,
                               std::uint64_t offset,
                               std::uint64_t chunk_bytes, int shift,
                               RecvMode mode, std::vector<std::byte>* carry);

  /// Eager deposit into `dst`'s mailbox slot for this rank (PIO), with
  /// per-pair sequence/ack flow control.
  sim::Task<Status> eager_send(std::uint32_t rank, std::uint32_t dst,
                               std::vector<std::byte> payload);
  /// Receives the next eager deposit from `src` (bytes known by protocol).
  sim::Task<Status> eager_recv(std::uint32_t rank, std::uint32_t src,
                               std::uint64_t bytes,
                               std::vector<std::byte>* out);

  sim::Task<Status> eager_allreduce(std::uint32_t rank, api::Buffer buf,
                                    std::uint64_t offset, std::uint64_t count);

  [[nodiscard]] std::uint64_t halo_slot_off(bool from_prev) const;

  /// Logical ring order over the ranks, derived from the fabric topology
  /// (TopologySpec::ring_order): identity on ring/dual-ring — which keeps
  /// every ring schedule bitwise identical to the pre-topology library —
  /// and a boustrophedon walk on tori, so each logical-ring hop rides a
  /// single cable instead of crossing the torus. ring_pos_ is the inverse
  /// permutation.
  [[nodiscard]] std::uint32_t ring_pos(std::uint32_t rank) const {
    return ring_pos_[rank];
  }
  [[nodiscard]] std::uint32_t rank_at(std::uint32_t pos) const {
    return ring_order_[pos % ranks_];
  }

  api::Runtime* rt_;
  CollConfig cfg_;
  std::uint32_t ranks_ = 0;
  std::vector<std::uint32_t> ring_order_;
  std::vector<std::uint32_t> ring_pos_;
  std::uint64_t slot_stride_ = 0;   ///< staging/bounce slot stride (256-aligned)
  /// Mailbox slot stride: one eager payload (256-aligned).
  static constexpr std::uint64_t kEagerSlot = kEagerThreshold;
  static_assert(kEagerSlot % 256 == 0);
  std::vector<RankState> states_;
  /// Per-(src,dst) eager deposit counters, flattened src*ranks+dst. The tx
  /// view advances on send, the rx view on receive; they stay aligned
  /// because every rank runs the same op sequence.
  std::vector<std::uint32_t> eager_tx_seq_;
  std::vector<std::uint32_t> eager_rx_seq_;
  /// Shared op log for sequence-divergence detection (first rank to reach
  /// index i defines the expected signature).
  std::vector<OpSig> op_log_;
  /// ring_recv's arriving segment and, when folding, the rank's own bytes.
  std::vector<std::byte> recv_in_;
  std::vector<std::byte> recv_own_;
  CollMetrics metrics_;
};

}  // namespace tca::coll
