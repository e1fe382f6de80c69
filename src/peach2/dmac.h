// Chaining DMA controller of the PEACH2 chip (Sections III-F2, IV-A/B).
//
// Three transfer kinds (see DmaDirection):
//  * kWrite — internal RAM -> CPU/GPU, posted MWr TLPs. Remote writes
//    request a PEARL delivery notification on each descriptor's final TLP;
//    the engine overlaps notifications with subsequent descriptors' data
//    (kRemoteAckWindow deep for CPU targets — what makes small remote
//    transfers latency-bound and 4 KiB line-rate; kGpuRemoteAckWindow deep
//    for GPU targets, whose request queue absorbs posted writes) (Fig. 12).
//    The chain holds completion until every notification is in.
//  * kRead — local CPU/GPU -> internal RAM via tag-limited MRd requests,
//    paced at kReadIssueIntervalPs. Remote reads are rejected: "PEACH2
//    supports only RDMA put protocol".
//  * kPipelined — the "new DMAC" of Section IV-B2: reads the local source
//    and forwards each completion as a write toward the (possibly remote)
//    destination without staging the whole transfer in internal memory.
//
// The descriptor table lives in simulated host memory; the driver installs
// a fetch callback (the hardware would issue MRds — the fetch latency is
// modeled by kDescriptorTableFetchPs and the fetched bytes are the ones the
// driver actually wrote).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "calib/calibration.h"
#include "peach2/descriptor.h"
#include "peach2/tca_layout.h"
#include "pcie/tlp.h"
#include "sim/ring.h"
#include "sim/scheduler.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace tca::peach2 {

class Peach2Chip;

class DmaController {
 public:
  /// Each channel owns a disjoint 64-wide tag window: read tags live at
  /// [channel*64, channel*64 + kDmaReadTags), delivery-notification tags at
  /// [channel*64 + 32, channel*64 + 64). The chip dispatches completions
  /// and acks back to the owning channel via tag/64.
  DmaController(sim::Scheduler& sched, Peach2Chip& chip, int channel);

  [[nodiscard]] int channel() const { return channel_; }

  /// Installed by the driver: reads `count` descriptors from the table at
  /// host bus address `table_addr` (which the driver previously serialized
  /// into host DRAM).
  using TableFetcher =
      std::function<std::vector<DmaDescriptor>(std::uint64_t table_addr,
                                               std::uint32_t count)>;
  void set_table_fetcher(TableFetcher fetcher) {
    fetch_table_ = std::move(fetcher);
  }

  // --- Register-file surface ----------------------------------------------
  void set_table_addr(std::uint64_t addr) { table_addr_ = addr; }
  void set_count(std::uint32_t count) { count_ = count; }
  void set_imm_src(std::uint64_t addr) { imm_.src = addr; }
  void set_imm_dst(std::uint64_t addr) { imm_.dst = addr; }
  void set_imm_len(std::uint64_t value) {
    imm_.length = static_cast<std::uint32_t>(value);
    imm_.direction = static_cast<DmaDirection>((value >> 32) & 0x3);
  }
  /// Completion writeback target (0 = interrupt mode).
  void set_writeback_addr(std::uint64_t addr) { writeback_addr_ = addr; }
  [[nodiscard]] std::uint64_t writeback_addr() const {
    return writeback_addr_;
  }
  [[nodiscard]] std::uint64_t status() const { return status_; }
  /// Clears the done bit; the error bit stays sticky until the next chain
  /// starts so the driver can diagnose a failed chain after acknowledging.
  void ack_interrupt() { status_ &= ~2ull /*done*/; }

  /// Doorbell: fetches the table and runs the chain. No-op if busy.
  void doorbell();

  /// Immediate kick: runs the register-latched descriptor, skipping the
  /// descriptor-table fetch entirely. No-op if busy.
  void kick_immediate();

  [[nodiscard]] bool busy() const { return (status_ & 1ull) != 0; }

  /// Cooperative chain abort (driver watchdog / error ISR). Marks the chain
  /// failed with `code`, forgets outstanding reads and delivery
  /// notifications, and wakes every suspended engine coroutine so the chain
  /// unwinds and still signals completion (done|error + interrupt or
  /// writeback) — the driver always gets its completion edge. No-op when
  /// idle or already aborting.
  void abort(ErrorCode code);
  [[nodiscard]] bool aborted() const { return aborted_; }

  /// Fault injection: while stuck, doorbells/kicks are silently swallowed
  /// (a wedged engine that never sets busy) — the driver-watchdog scenario.
  void set_stuck(bool stuck) { stuck_ = stuck; }

  /// kDmaBankErrInfo register value: failing descriptor index in the low
  /// word, ErrorCode in the high word. Valid while the error bit is set.
  [[nodiscard]] std::uint64_t error_info() const { return error_info_; }

  // --- Hooks called by the chip ---------------------------------------------
  void on_read_completion(pcie::TlpPtr cpl);
  void on_delivery_ack(std::uint8_t tag);

  // --- Statistics -------------------------------------------------------------
  [[nodiscard]] std::uint64_t chains_completed() const { return chains_done_; }
  [[nodiscard]] std::uint64_t descriptors_completed() const {
    return descs_done_;
  }
  [[nodiscard]] std::uint64_t bytes_written() const { return bytes_written_; }
  [[nodiscard]] std::uint64_t bytes_read() const { return bytes_read_; }
  [[nodiscard]] std::uint64_t errors() const { return errors_; }
  /// Chains aborted (watchdog/error-ISR initiated), a subset of errors().
  [[nodiscard]] std::uint64_t aborts() const { return aborts_; }
  /// Non-posted requests whose completion timer expired.
  [[nodiscard]] std::uint64_t completion_timeouts() const {
    return completion_timeouts_;
  }
  /// Chain starts accepted (doorbell or immediate kick).
  [[nodiscard]] std::uint64_t doorbells() const { return doorbells_; }
  /// Descriptor-table fetches from host memory (Figure 8's dominant cost).
  [[nodiscard]] std::uint64_t table_fetches() const { return table_fetches_; }
  /// Completion interrupts raised toward the host (0 in writeback mode).
  [[nodiscard]] std::uint64_t interrupts() const { return interrupts_; }

 private:
  sim::Task<> run_chain();
  sim::Task<> run_immediate(DmaDescriptor d);
  sim::Task<> exec_one(DmaDescriptor d);
  sim::Task<> complete_chain();
  sim::Task<> exec_write(DmaDescriptor d);
  sim::Task<> exec_read(DmaDescriptor d);
  sim::Task<> exec_pipelined(DmaDescriptor d);

  /// Awaits delivery notifications until at most `max_pending` remain.
  sim::Task<> drain_acks(std::size_t max_pending);

  struct PendingRead {
    std::uint64_t dst_internal_offset = 0;  ///< where the data lands
    std::uint64_t forward_to = 0;  ///< kPipelined: global dst addr (0: none)
    std::uint64_t ack_address = 0; ///< kPipelined: ack request on last chunk
    std::uint8_t ack_tag = 0;
    std::uint32_t remaining = 0;
    bool last_of_descriptor = false;
    /// Completion-timeout timer armed at MRd issue, cancelled on the final
    /// completion chunk. Firing aborts the chain with kTimedOut.
    sim::Scheduler::EventId timeout_event = sim::Scheduler::kInvalidEvent;
  };

  /// Marks chain-start bookkeeping (clears a previous abort/error record).
  void arm_chain();
  /// Records a per-descriptor failure into status + error-info.
  void fail_descriptor(ErrorCode code);
  void on_completion_timeout(std::uint8_t tag);

  /// Completion-tag pool. Every tag handed out by acquire_tag must reach
  /// exactly one release_tag or be transferred into pending_reads_ (whose
  /// completion/timeout/abort paths release it) — proved by the proto-leak
  /// lint over the annotations below.
  // tca-protocol: acquires(dma-tag)
  sim::Task<std::uint8_t> acquire_tag();
  // tca-protocol: releases(dma-tag)
  void release_tag(std::uint8_t tag);

  /// A tag's offset in its channel's 64-wide window: read tags sit at
  /// [0, kDmaReadTags) and notification tags at [32, 64), so the offset of
  /// a read tag is its slot in pending_reads_.
  static std::size_t read_slot(std::uint8_t tag) { return tag % 64; }
  /// A notification tag's slot in ack_state_: its offset in the window's
  /// upper half.
  static std::size_t ack_slot(std::uint8_t tag) { return tag % kAckTags; }
  /// True for a tag in its window's read half.
  static bool is_read_tag(std::uint8_t tag) {
    return read_slot(tag) < calib::kDmaReadTags;
  }

  /// True once the notification for `tag`, which must be awaited, is in.
  [[nodiscard]] bool ack_arrived(std::uint8_t tag) const;

  /// Next delivery-notification tag, rolling within this channel's
  /// [base+32, base+64) window.
  [[nodiscard]] std::uint8_t next_ack_tag() const {
    const auto base = static_cast<std::uint8_t>(channel_ * 64 + 32);
    return static_cast<std::uint8_t>(base +
                                     ((next_ack_tag_ - base + 1) & 31));
  }

  sim::Scheduler& sched_;
  Peach2Chip& chip_;
  int channel_;
  TableFetcher fetch_table_;

  std::uint64_t table_addr_ = 0;
  std::uint32_t count_ = 0;
  std::uint64_t status_ = 0;
  DmaDescriptor imm_;  ///< register-latched immediate descriptor
  std::uint64_t writeback_addr_ = 0;
  bool aborted_ = false;
  bool stuck_ = false;
  std::uint64_t error_info_ = 0;
  std::uint32_t current_desc_ = 0;  ///< index of the in-progress descriptor

  /// Notification tags per channel: the upper half of its window.
  static constexpr std::size_t kAckTags = 32;
  static_assert(calib::kDmaReadTags + kAckTags == 64);

  // Read machinery.
  sim::Semaphore tag_sem_;
  std::vector<std::uint8_t> free_tags_;
  // One slot per read tag (see read_slot()). abort() walks the
  // outstanding reads in ascending tag order and hands their tags back; the
  // free-tag list feeds later tag assignment, so that order is part of the
  // replayable result.
  std::array<std::optional<PendingRead>, calib::kDmaReadTags> pending_reads_;
  std::uint32_t outstanding_reads_ = 0;
  sim::Trigger reads_drained_;

  // Pipelined-mode forwarded writes still being injected (the interrupt
  // must not fire before they have left the chip, or a subsequent PIO flag
  // could overtake the data).
  std::uint32_t pending_forwards_ = 0;
  sim::Trigger forwards_done_;

  // Remote-write delivery-notification window.
  enum class AckState : std::uint8_t { kNone, kAwaited, kArrived };
  sim::Ring<std::uint8_t> pending_acks_;
  std::array<AckState, kAckTags> ack_state_{};  ///< see ack_slot()
  sim::Trigger ack_event_;
  std::uint8_t next_ack_tag_ = 0;

  sim::Task<> chain_task_;

  std::uint64_t chains_done_ = 0;
  std::uint64_t descs_done_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t bytes_read_ = 0;
  std::uint64_t errors_ = 0;
  std::uint64_t aborts_ = 0;
  std::uint64_t completion_timeouts_ = 0;
  std::uint64_t doorbells_ = 0;
  std::uint64_t table_fetches_ = 0;
  std::uint64_t interrupts_ = 0;
};

}  // namespace tca::peach2
