// Transaction-layer packets (TLPs).
//
// The simulator models PCIe at TLP granularity: Memory Write Request
// (posted), Memory Read Request (non-posted), Completion-with-Data, and a
// vendor-defined message used by PEARL for end-to-end delivery notification.
// TLPs carry *real payload bytes* so data integrity is checkable end-to-end.
//
// Payload ownership and lifetime: a TLP owns its bytes in a pcie::Payload,
// a byte vector whose allocator takes its block from the running
// scheduler's FrameArena when the TLP is built (or copied) inside an event,
// and from the global heap otherwise (set-up code, main(), every allocation
// under ASan). The steady-state TLP path therefore recycles pooled blocks
// instead of calling malloc per TLP. The rule that follows is the one
// coroutine frames already obey: a TLP built inside an event must not
// outlive its scheduler. Components, sinks and test probes that keep TLPs
// are declared after the scheduler they run on, so they are destroyed
// first. The arena checks the rule when it dies (see arena.h): a payload
// block still out fails a TCA_ASSERT.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "calib/calibration.h"
#include "common/units.h"
#include "sim/arena.h"

namespace tca::pcie {

enum class TlpType : std::uint8_t {
  kMemWrite,    ///< MWr: posted write, routed by address
  kMemRead,     ///< MRd: non-posted read request, routed by address
  kCompletion,  ///< CplD: read completion with data, routed by requester id
  kVendorMsg,   ///< PEARL delivery notification, routed by address
};

const char* to_string(TlpType type);

/// Identifies a requester (bus/device function in real PCIe; a flat device
/// id here). Used to route completions back to the issuing device.
using DeviceId = std::uint16_t;

/// Observer a final-hop PEACH2 chip plants on a MemWrite so the memory
/// endpoint (host DRAM controller, GPU GDDR queue) can announce the instant
/// the payload actually commits. This times the PEARL delivery notification
/// off the real commit — including link serialization, root-complex and
/// device queueing, and the endpoint's own commit latency — so an ack can
/// never outrun its data through a congested path. Dropped or abandoned
/// TLPs never notify: the missing ack is what makes the source DMAC's
/// watchdog retry the chain.
class CommitNotifier {
 public:
  // tca-protocol: acks-on-commit
  virtual void on_write_commit(std::uint64_t ack_address,
                               std::uint8_t tag) = 0;

 protected:
  ~CommitNotifier() = default;
};

/// Stateless allocator over sim::arena_alloc/arena_free (see the file
/// comment).
template <typename T>
struct ArenaAllocator {
  using value_type = T;
  ArenaAllocator() noexcept = default;
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& /*other*/) noexcept {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(sim::arena_alloc(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    sim::arena_free(p, n * sizeof(T));
  }
  friend bool operator==(ArenaAllocator, ArenaAllocator) { return true; }
};

/// The bytes a TLP carries. Sizes above kMaxPayloadBytes are allowed (link
/// benches and tests send oversized TLPs).
using Payload = std::vector<std::byte, ArenaAllocator<std::byte>>;

struct Tlp {
  TlpType type = TlpType::kMemWrite;

  /// Target PCIe bus address (MWr/MRd/kVendorMsg). For completions this
  /// holds the original request address (useful for reassembly offsets).
  std::uint64_t address = 0;

  /// Requested byte count for MRd; payload size for MWr/CplD.
  std::uint32_t length = 0;

  DeviceId requester = 0;
  std::uint8_t tag = 0;

  /// Remaining byte count for multi-completion reads (PCIe's Byte Count
  /// field): the requester knows the read finished when this completion's
  /// payload covers the remainder.
  std::uint32_t byte_count_remaining = 0;

  /// PEARL delivery notification: when non-zero on a MemWrite, the chip
  /// that forwards this TLP out its North port (i.e. delivers it into the
  /// destination node) arranges for a kVendorMsg with the same `tag` to be
  /// sent to this global mailbox address once the write commits (see
  /// CommitNotifier). Used by the DMAC's remote-write completion window.
  std::uint64_t ack_address = 0;

  Payload payload;

  /// When non-null on a MemWrite, the committing endpoint calls
  /// `commit_notifier->on_write_commit(ack_address, tag)` at the simulated
  /// instant the payload lands in memory. Set by the final-hop chip, which
  /// leaves `ack_address` populated for the endpoint to echo back.
  CommitNotifier* commit_notifier = nullptr;

  /// Bytes this TLP occupies on the wire (payload + header/DLL/PHY framing),
  /// using the overhead terms of the paper's peak-bandwidth formula.
  [[nodiscard]] std::uint64_t wire_bytes() const;

  /// Builders -------------------------------------------------------------

  static Tlp mem_write(std::uint64_t address, std::span<const std::byte> data,
                       DeviceId requester = 0);
  /// The same, taking over `data`'s block instead of copying it (the
  /// pipelined DMAC forwards a read completion's bytes this way).
  static Tlp mem_write(std::uint64_t address, Payload&& data,
                       DeviceId requester = 0);
  static Tlp mem_read(std::uint64_t address, std::uint32_t length,
                      DeviceId requester, std::uint8_t tag);
  /// Completion carrying the next `length` bytes of `request`, with its
  /// payload sized (zero-filled) for the caller to read the data straight
  /// into.
  static Tlp completion(const Tlp& request, std::uint32_t length,
                        std::uint32_t byte_count_remaining);
  // tca-protocol: acks-on-commit
  static Tlp vendor_msg(std::uint64_t address, DeviceId requester,
                        std::uint8_t tag);
};

/// Splits a byte range into TLP-payload-sized chunks honoring
/// MaxPayloadSize. f(offset, chunk_len) is invoked in address order.
template <typename F>
void for_each_payload_chunk(std::uint64_t offset, std::uint64_t total,
                            std::uint32_t max_payload, F&& f) {
  std::uint64_t done = 0;
  while (done < total) {
    const auto chunk = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(max_payload, total - done));
    f(offset + done, chunk);
    done += chunk;
  }
}

}  // namespace tca::pcie
