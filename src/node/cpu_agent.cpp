#include "node/cpu_agent.h"

#include <cstring>

#include "pcie/tlp.h"

namespace tca::node {

using calib::kCpuMmioStorePs;
using calib::kCpuPollDetectPs;
using calib::kCpuPollIterationPs;
using calib::kMaxPayloadBytes;

CpuAgent::CpuAgent(sim::Scheduler& sched, RootComplex& rc,
                   mem::Dram& host_dram, std::uint64_t host_base)
    : sched_(sched),
      rc_(rc),
      host_dram_(host_dram),
      host_base_(host_base),
      load_tags_(sched, 32) {
  rc_.set_cpu_completion_handler(
      [this](pcie::TlpPtr cpl) { on_completion(*cpl); });
}

sim::Task<> CpuAgent::mmio_store(std::uint64_t bus_addr,
                                 std::span<const std::byte> data) {
  std::uint64_t done = 0;
  while (done < data.size()) {
    const auto chunk = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        kMaxPayloadBytes, data.size() - done));
    // Store issue cost: the write-combining buffer flush per TLP.
    co_await sim::Delay(sched_, kCpuMmioStorePs);
    rc_.inject_from_cpu(pcie::Tlp::mem_write(
        bus_addr + done, data.subspan(done, chunk), device_id()));
    done += chunk;
  }
}

sim::Task<std::vector<std::byte>> CpuAgent::mmio_load(std::uint64_t bus_addr,
                                                      std::uint32_t length) {
  TCA_ASSERT(length > 0 && length <= calib::kMaxReadRequestBytes);
  co_await load_tags_.acquire();
  const std::uint8_t tag = next_tag_++;
  sim::Trigger done(sched_);
  auto [it, inserted] = pending_loads_.try_emplace(tag);
  TCA_ASSERT(inserted && "tag collision");
  it->second.buffer.resize(length);
  it->second.done = &done;

  co_await sim::Delay(sched_, kCpuMmioStorePs);  // uncached load issue
  rc_.inject_from_cpu(pcie::Tlp::mem_read(bus_addr, length, device_id(), tag));

  co_await done.wait();
  std::vector<std::byte> result = std::move(pending_loads_[tag].buffer);
  pending_loads_.erase(tag);
  load_tags_.release();
  co_return result;
}

void CpuAgent::on_completion(const pcie::Tlp& cpl) {
  auto it = pending_loads_.find(cpl.tag);
  TCA_ASSERT(it != pending_loads_.end() && "completion for unknown tag");
  PendingLoad& load = it->second;
  const std::uint32_t total = static_cast<std::uint32_t>(load.buffer.size());
  TCA_ASSERT(cpl.byte_count_remaining <= total);
  const std::uint32_t offset = total - cpl.byte_count_remaining;
  TCA_ASSERT(offset + cpl.payload.size() <= total);
  std::copy(cpl.payload.begin(), cpl.payload.end(),
            load.buffer.begin() + offset);
  load.received += static_cast<std::uint32_t>(cpl.payload.size());
  if (load.received == total) load.done->fire();
}

sim::Task<TimePs> CpuAgent::poll_host_until_change(std::uint64_t offset,
                                                   std::uint32_t initial) {
  co_await sim::PollUntil(sched_, kCpuPollIterationPs, [this, offset, initial] {
    ++poll_iterations_;
    std::uint32_t now_value = 0;
    host_dram_.read(offset, std::as_writable_bytes(std::span(&now_value, 1)));
    return now_value != initial;
  });
  co_await sim::Delay(sched_, kCpuPollDetectPs);  // TSC read + compare
  co_return sched_.now();
}

}  // namespace tca::node
