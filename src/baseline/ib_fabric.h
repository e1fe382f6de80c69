// InfiniBand fabric model (the conventional interconnect of Table I).
//
// HA-PACS connects its nodes with dual-rail InfiniBand QDR through a
// full-bisection fat tree; for the latency/bandwidth comparison against TCA
// only the per-message behaviour matters: verbs-level one-way latency, rail
// bandwidth, and NIC serialization. Messages carry real bytes into the
// destination node's host memory, so the baselines are functionally checked
// just like the TCA path.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/error.h"
#include "node/compute_node.h"
#include "sim/scheduler.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace tca::baseline {

struct IbConfig {
  int rails = 2;  ///< Table I: "Mellanox Connect-X3 Dual-port QDR"
};

/// Verbs-level RDMA fabric between the nodes of a cluster. One NIC per
/// node; each rail serializes sends independently (messages are striped
/// across rails at 4 KiB granularity when both are idle — we model the
/// aggregate rate for multi-rail sends, which is what MPI achieves with
/// rail binding).
class IbFabric {
 public:
  IbFabric(sim::Scheduler& sched, std::vector<node::ComputeNode*> nodes,
           IbConfig config = {});

  [[nodiscard]] const IbConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(nodes_.size());
  }

  /// Sentinel for dst_offset: model timing/delivery but skip the physical
  /// landing (used when the destination buffer is tracked elsewhere).
  static constexpr std::uint64_t kTimingOnly = ~0ull;

  /// RDMA write: src node's NIC reads `data` (already staged in pinned
  /// memory — staging costs are the caller's, i.e. MPI's) and writes it
  /// into dst node's host memory at `dst_offset`. Completes at the sender
  /// when the NIC finishes the send; delivery lands after wire latency.
  /// `use_rails` limits striping (1 = single rail).
  sim::Task<> rdma_write(std::uint32_t src_node, std::uint32_t dst_node,
                         std::span<const std::byte> data,
                         std::uint64_t dst_offset, int use_rails = 0);

  /// Completion signal: fires `delivered` (if non-null) when the bytes are
  /// visible at the destination (used by MpiLite to complete receives).
  /// The trigger must outlive the delivery (wire latency past send
  /// completion).
  sim::Task<> rdma_write_notify(std::uint32_t src_node,
                                std::uint32_t dst_node,
                                std::span<const std::byte> data,
                                std::uint64_t dst_offset,
                                sim::Trigger* delivered, int use_rails = 0);

  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] std::uint64_t messages_sent() const { return messages_; }
  [[nodiscard]] std::uint64_t host_dram_bytes(std::uint32_t node) const {
    return nodes_.at(node)->host_dram().size();
  }

 private:
  /// Per-NIC serialization: one DMA engine per rail set.
  struct Nic {
    std::unique_ptr<sim::Semaphore> engine;  // 1 permit: serializes sends
  };

  sim::Scheduler& sched_;
  IbConfig cfg_;
  std::vector<node::ComputeNode*> nodes_;
  std::vector<Nic> nics_;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t messages_ = 0;
};

}  // namespace tca::baseline
