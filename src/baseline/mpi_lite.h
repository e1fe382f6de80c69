// Minimal MPI-like message layer over the IB fabric.
//
// Models what the TCA architecture eliminates (Sections I and V): the
// protocol stack between two host processes. Eager protocol below the
// threshold (staging copy + one fabric message), rendezvous above it
// (RTS/CTS handshake RTT + zero-copy transfer). All costs come from the
// calibration constants; payloads are real bytes landed in the receiver's
// host memory before being handed to the application.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "baseline/ib_fabric.h"
#include "calib/calibration.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace tca::baseline {

class MpiLite {
 public:
  MpiLite(sim::Scheduler& sched, IbFabric& fabric);

  /// Blocking-semantics send (returns when the send buffer is reusable:
  /// eager = after NIC send of the staged copy; rendezvous = after the
  /// zero-copy transfer completes).
  sim::Task<> send(std::uint32_t rank, std::uint32_t dst, int tag,
                   std::span<const std::byte> data);

  /// Blocking receive; returns the message payload.
  sim::Task<std::vector<std::byte>> recv(std::uint32_t rank,
                                         std::uint32_t src, int tag);

  [[nodiscard]] std::uint64_t eager_sends() const { return eager_sends_; }
  [[nodiscard]] std::uint64_t rendezvous_sends() const { return rndv_sends_; }

 private:
  struct Mailbox {
    std::deque<std::vector<std::byte>> messages;  // arrived, unmatched
    std::unique_ptr<sim::Trigger> arrived;
    std::uint32_t waiting_recvs = 0;  // posted receives (rendezvous CTS gate)
    std::unique_ptr<sim::Trigger> recv_posted;
  };
  using Key = std::tuple<std::uint32_t, std::uint32_t, int>;  // src,dst,tag

  Mailbox& mailbox(const Key& key);

  /// Rotating eager-region offset in the receiver's host DRAM.
  std::uint64_t eager_slot(std::uint32_t dst, std::uint64_t bytes);

  sim::Scheduler& sched_;
  IbFabric& fabric_;
  std::map<Key, Mailbox> mailboxes_;
  std::vector<std::uint64_t> eager_cursor_;
  std::uint64_t eager_sends_ = 0;
  std::uint64_t rndv_sends_ = 0;
};

}  // namespace tca::baseline
