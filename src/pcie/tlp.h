// Transaction-layer packets (TLPs).
//
// The simulator models PCIe at TLP granularity: Memory Write Request
// (posted), Memory Read Request (non-posted), Completion-with-Data, and a
// vendor-defined message used by PEARL for end-to-end delivery notification.
// TLPs carry *real payload bytes* so data integrity is checkable end-to-end.
//
// One object per packet: a Tlp is built once, in place, in a block of the
// running scheduler's FrameArena, and every layer it crosses (link queues,
// chip rings, route pipeline, root complex, GPU, DMAC) passes a TlpPtr, the
// 8-byte owning handle to it. Tlp itself can be neither copied nor moved, so
// a by-value use fails to compile instead of costing a 72-byte move per
// hop. Its bytes live in a pcie::Payload, a byte vector whose allocator
// takes its block from the same arena.
//
// Lifetime: blocks taken inside an event come from the scheduler's arena,
// blocks taken outside one (set-up code, main(), every allocation under
// ASan) from the global heap, and either kind is freed through its own
// header, from any context. The rule that follows is the one coroutine
// frames already obey: a TLP or payload built inside an event must not
// outlive its scheduler. Components, sinks and test probes that keep TLPs
// are declared after the scheduler they run on, so they are destroyed
// first. The arena checks the rule when it dies (see arena.h): a block
// still out fails a TCA_ASSERT.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
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

class Tlp;

/// Destroys a Tlp and returns its block to the arena it came from.
struct TlpDeleter {
  void operator()(Tlp* tlp) const noexcept;
};

/// The owning handle every layer passes a TLP by.
using TlpPtr = std::unique_ptr<Tlp, TlpDeleter>;

class Tlp {
 public:
  Tlp(const Tlp&) = delete;
  Tlp& operator=(const Tlp&) = delete;

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
  [[nodiscard]] std::uint64_t wire_bytes() const {
    switch (type) {
      case TlpType::kMemWrite:
        return calib::kTlpWithDataOverheadBytes + payload.size();
      case TlpType::kCompletion:
        return calib::kTlpCompletionOverheadBytes + payload.size();
      case TlpType::kMemRead:
      case TlpType::kVendorMsg:  // header-only message
        return calib::kTlpReadRequestBytes;
    }
    return calib::kTlpWithDataOverheadBytes;
  }

  /// Rewrites this TLP in place into a MemWrite of its own payload to `to`
  /// from requester `from`, every other header field as mem_write() sets
  /// it. The pipelined DMAC forwards a read completion's bytes this way:
  /// the packet that arrived is the packet that leaves.
  void rewrite_as_mem_write(std::uint64_t to, DeviceId from);

  /// Factories: each constructs the TLP in place, in its arena block, and
  /// returns the handle ---------------------------------------------------

  /// A default (empty MemWrite) TLP for callers that fill in the fields
  /// themselves: the link benches send payloads larger than
  /// MaxPayloadSize, which mem_write() rejects.
  static TlpPtr make();
  static TlpPtr mem_write(std::uint64_t address,
                          std::span<const std::byte> data,
                          DeviceId requester = 0);
  static TlpPtr mem_read(std::uint64_t address, std::uint32_t length,
                         DeviceId requester, std::uint8_t tag);
  /// Completion carrying the next `length` bytes of `request`, with its
  /// payload sized (zero-filled) for the caller to read the data straight
  /// into.
  static TlpPtr completion(const Tlp& request, std::uint32_t length,
                           std::uint32_t byte_count_remaining);
  // tca-protocol: acks-on-commit
  static TlpPtr vendor_msg(std::uint64_t address, DeviceId requester,
                           std::uint8_t tag);

 private:
  Tlp() = default;
};

inline void TlpDeleter::operator()(Tlp* tlp) const noexcept {
  tlp->~Tlp();
  sim::arena_free(tlp, sizeof(Tlp));
}

static_assert(sizeof(TlpPtr) == sizeof(Tlp*),
              "the handle is one pointer: its deleter is stateless");

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
