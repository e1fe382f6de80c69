#include "baseline/mpi_lite.h"

#include <cmath>

namespace tca::baseline {

using calib::kHostCopyBytesPerSec;
using calib::kIbEagerThresholdBytes;
using calib::kIbRendezvousRttPs;
using calib::kMpiSoftwareOverheadPs;

namespace {

TimePs copy_ps(std::uint64_t bytes) {
  return static_cast<TimePs>(std::llround(
      static_cast<double>(bytes) / kHostCopyBytesPerSec * 1e12));
}

/// Eager ring: 2 MiB region near the top of the receiver's host DRAM
/// (below the PEACH2 driver's descriptor table, so hybrid TCA+MPI setups
/// don't collide).
constexpr std::uint64_t kEagerRingBytes = 2ull << 20;
constexpr std::uint64_t kEagerRingFromTop = 4ull << 20;

}  // namespace

MpiLite::MpiLite(sim::Scheduler& sched, IbFabric& fabric)
    : sched_(sched), fabric_(fabric), eager_cursor_(fabric.size(), 0) {}

MpiLite::Mailbox& MpiLite::mailbox(const Key& key) {
  Mailbox& box = mailboxes_[key];
  if (!box.arrived) {
    box.arrived = std::make_unique<sim::Trigger>(sched_);
    box.recv_posted = std::make_unique<sim::Trigger>(sched_);
  }
  return box;
}

std::uint64_t MpiLite::eager_slot(std::uint32_t dst, std::uint64_t bytes) {
  TCA_ASSERT(bytes <= kEagerRingBytes);
  std::uint64_t& cursor = eager_cursor_[dst];
  if (cursor + bytes > kEagerRingBytes) cursor = 0;
  const std::uint64_t slot = cursor;
  cursor += (bytes + 63) & ~63ull;  // cacheline-align slots
  const std::uint64_t ring_base =
      fabric_.host_dram_bytes(dst) - kEagerRingFromTop;
  return ring_base + slot;
}

sim::Task<> MpiLite::send(std::uint32_t rank, std::uint32_t dst, int tag,
                          std::span<const std::byte> data) {
  TCA_ASSERT(rank != dst);
  Mailbox& box = mailbox(Key{rank, dst, tag});
  co_await sim::Delay(sched_, kMpiSoftwareOverheadPs);

  if (data.size() <= kIbEagerThresholdBytes) {
    ++eager_sends_;
    // Stage into the pinned comm buffer, then fire one fabric message into
    // the receiver's eager ring.
    co_await sim::Delay(sched_, copy_ps(data.size()));
    const std::uint64_t slot = eager_slot(dst, data.size());
    // Keep our own payload copy for the functional handoff (the eager ring
    // bytes model the physical landing zone).
    std::vector<std::byte> payload(data.begin(), data.end());
    sim::Trigger delivered(sched_);
    co_await fabric_.rdma_write_notify(rank, dst, data, slot, &delivered);
    // MPI_Send returns once the staged buffer is handed to the NIC; hand
    // the payload to the matching layer when it physically arrives.
    co_await delivered.wait();
    box.messages.push_back(std::move(payload));
    box.arrived->pulse();
    co_return;
  }

  // Rendezvous: handshake with the receiver (RTS/CTS round trip), then the
  // zero-copy transfer directly into the posted buffer.
  ++rndv_sends_;
  while (box.waiting_recvs == 0) co_await box.recv_posted->wait();
  co_await sim::Delay(sched_, kIbRendezvousRttPs);
  std::vector<std::byte> payload(data.begin(), data.end());
  sim::Trigger delivered(sched_);
  // Zero-copy: the bytes land directly in the receiver's posted buffer,
  // which the matching layer (not host-DRAM offsets) tracks.
  co_await fabric_.rdma_write_notify(rank, dst, data, IbFabric::kTimingOnly,
                                     &delivered);
  co_await delivered.wait();
  box.messages.push_back(std::move(payload));
  box.arrived->pulse();
}

sim::Task<std::vector<std::byte>> MpiLite::recv(std::uint32_t rank,
                                                std::uint32_t src, int tag) {
  Mailbox& box = mailbox(Key{src, rank, tag});
  co_await sim::Delay(sched_, kMpiSoftwareOverheadPs);
  ++box.waiting_recvs;
  box.recv_posted->pulse();
  while (box.messages.empty()) co_await box.arrived->wait();
  std::vector<std::byte> data = std::move(box.messages.front());
  box.messages.pop_front();
  --box.waiting_recvs;
  // Copy out of the comm buffer into the application buffer (eager path
  // pays this; rendezvous landed in place, model the tail software cost).
  if (data.size() <= kIbEagerThresholdBytes) {
    co_await sim::Delay(sched_, copy_ps(data.size()));
  } else {
    co_await sim::Delay(sched_, kMpiSoftwareOverheadPs);
  }
  co_return data;
}

}  // namespace tca::baseline
