#include "baseline/ib_fabric.h"

#include <cmath>

#include "calib/calibration.h"

namespace tca::baseline {

IbFabric::IbFabric(sim::Scheduler& sched,
                   std::vector<node::ComputeNode*> nodes, IbConfig config)
    : sched_(sched), cfg_(config), nodes_(std::move(nodes)) {
  TCA_ASSERT(!nodes_.empty());
  TCA_ASSERT(cfg_.rails >= 1);
  nics_.resize(nodes_.size());
  for (auto& nic : nics_) {
    nic.engine = std::make_unique<sim::Semaphore>(sched_, 1);
  }
}

sim::Task<> IbFabric::rdma_write(std::uint32_t src_node,
                                 std::uint32_t dst_node,
                                 std::span<const std::byte> data,
                                 std::uint64_t dst_offset, int use_rails) {
  co_await rdma_write_notify(src_node, dst_node, data, dst_offset,
                             /*delivered=*/nullptr, use_rails);
}

sim::Task<> IbFabric::rdma_write_notify(std::uint32_t src_node,
                                        std::uint32_t dst_node,
                                        std::span<const std::byte> data,
                                        std::uint64_t dst_offset,
                                        sim::Trigger* delivered,
                                        int use_rails) {
  TCA_ASSERT(src_node < size() && dst_node < size());
  TCA_ASSERT(src_node != dst_node);
  const int rails = use_rails > 0 ? use_rails : cfg_.rails;
  const double rate =
      calib::kIbBytesPerSecPerRail * std::min(rails, cfg_.rails);

  // Serialize on the sender NIC.
  sim::Semaphore& engine = *nics_[src_node].engine;
  co_await engine.acquire();
  const auto send_ps = static_cast<TimePs>(
      std::llround(static_cast<double>(data.size()) / rate * 1e12));
  co_await sim::Delay(sched_, send_ps);
  ++messages_;
  bytes_sent_ += data.size();
  engine.release();

  // Wire + switch latency, then the bytes land in destination host memory.
  std::vector<std::byte> payload;
  if (dst_offset != kTimingOnly) {
    payload.assign(data.begin(), data.end());
  }
  sched_.schedule_after(
      calib::kIbRawLatencyPs,
      [this, dst_node, dst_offset, p = std::move(payload), delivered] {
        if (dst_offset != kTimingOnly) {
          nodes_[dst_node]->host_dram().write(dst_offset, p);
        }
        if (delivered != nullptr) delivered->fire();
      });
}

}  // namespace tca::baseline
