#include "gpu/gpu_device.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"
#include "common/units.h"

namespace tca::gpu {

using calib::kGpuPinPageBytes;
using calib::kGpuReadChunkBytes;
using calib::kGpuReadLatencyPs;
using calib::kGpuReadServicePs;

GpuDevice::GpuDevice(sim::Scheduler& sched, pcie::DeviceId id,
                     const GpuConfig& config)
    : sched_(sched),
      id_(id),
      cfg_(config),
      gddr_(config.memory_bytes),
      pinned_((config.memory_bytes + kGpuPinPageBytes - 1) / kGpuPinPageBytes,
              false),
      read_pending_(sched),
      read_task_(read_service_loop()) {}

void GpuDevice::attach(pcie::LinkPort& port) {
  port_ = &port;
  port.set_sink(this);
  port.set_tx_ready([this] { pump_tx(); });
}

Result<DevPtr> GpuDevice::mem_alloc(std::uint64_t bytes) {
  if (bytes == 0) return Status{ErrorCode::kInvalidArgument, "zero-size alloc"};
  // 256 B alignment like cuMemAlloc.
  const std::uint64_t base = (alloc_cursor_ + 255) & ~255ull;
  if (!units::range_fits(base, bytes, gddr_.size())) {
    return Status{ErrorCode::kResourceExhausted, "GDDR exhausted"};
  }
  alloc_cursor_ = base + bytes;
  return base;
}

Result<P2pToken> GpuDevice::get_p2p_token(DevPtr ptr) const {
  if (ptr >= gddr_.size()) {
    return Status{ErrorCode::kOutOfRange, "pointer outside device memory"};
  }
  // Token derived from the allocation address; the P2P driver validates it.
  return P2pToken{.p2p_token = 0x7c00'0000'0000'0000ull | ptr,
                  .va_space_token = static_cast<std::uint32_t>(id_)};
}

Result<std::uint64_t> GpuDevice::pin_pages(const P2pToken& token, DevPtr ptr,
                                           std::uint64_t len) {
  if (token.va_space_token != static_cast<std::uint32_t>(id_) ||
      (token.p2p_token >> 56) != 0x7c) {
    return Status{ErrorCode::kPermissionDenied, "invalid P2P token"};
  }
  if (len == 0 || !units::range_fits(ptr, len, gddr_.size())) {
    return Status{ErrorCode::kOutOfRange, "pin range outside device memory"};
  }
  const std::uint64_t first = ptr / kGpuPinPageBytes;
  const std::uint64_t last = (ptr + len - 1) / kGpuPinPageBytes;
  for (std::uint64_t p = first; p <= last; ++p) pinned_[p] = true;
  return cfg_.bar1_base + ptr;
}

bool GpuDevice::is_pinned(DevPtr ptr, std::uint64_t len) const {
  if (len == 0 || !units::range_fits(ptr, len, gddr_.size())) return false;
  const std::uint64_t first = ptr / kGpuPinPageBytes;
  const std::uint64_t last = (ptr + len - 1) / kGpuPinPageBytes;
  for (std::uint64_t p = first; p <= last; ++p) {
    if (!pinned_[p]) return false;
  }
  return true;
}

std::optional<DevPtr> GpuDevice::translate(std::uint64_t bus_addr,
                                           std::uint32_t len) const {
  if (bus_addr < cfg_.bar1_base) return std::nullopt;
  const std::uint64_t offset = bus_addr - cfg_.bar1_base;
  if (!units::range_fits(offset, len, gddr_.size())) return std::nullopt;
  if (!is_pinned(offset, len)) return std::nullopt;
  return offset;
}

sim::Task<> GpuDevice::memcpy_h2d(std::span<const std::byte> src, DevPtr dst) {
  co_await sim::Delay(sched_, calib::kCudaMemcpyOverheadPs);
  const auto copy_ps = static_cast<TimePs>(std::llround(
      static_cast<double>(src.size()) / calib::kCudaMemcpyBytesPerSec * 1e12));
  co_await sim::Delay(sched_, copy_ps);
  gddr_.write(dst, src);
}

sim::Task<> GpuDevice::memcpy_d2h(DevPtr src, std::span<std::byte> dst) {
  co_await sim::Delay(sched_, calib::kCudaMemcpyOverheadPs);
  const auto copy_ps = static_cast<TimePs>(std::llround(
      static_cast<double>(dst.size()) / calib::kCudaMemcpyBytesPerSec * 1e12));
  co_await sim::Delay(sched_, copy_ps);
  gddr_.read(src, dst);
}

// tca-protocol: owns(rx-credit)
void GpuDevice::on_tlp(pcie::TlpPtr tlp, pcie::LinkPort& port) {
  const std::uint64_t wire = tlp->wire_bytes();
  switch (tlp->type) {
    case pcie::TlpType::kMemWrite: {
      ++writes_rx_;
      auto dev = translate(tlp->address,
                           static_cast<std::uint32_t>(tlp->payload.size()));
      if (!dev) {
        ++access_errors_;
        Log::write(LogLevel::kWarn, sched_.now(), "gpu",
                   "dropped write to unpinned/out-of-aperture address");
      } else {
        // Deep request queue: commit after a small fixed latency; the queue
        // absorbs posted writes at line rate so credits return immediately.
        // tca-protocol: commit-point, owns(commit-ack)
        auto commit = [this, offset = *dev, t = std::move(tlp)] {
          gddr_.write(offset, t->payload);  // tca-protocol: commit
          // tca-protocol: release(commit-ack)
          if (t->commit_notifier != nullptr) {
            t->commit_notifier->on_write_commit(t->ack_address, t->tag);
          }
        };
        sched_.schedule_after(calib::kGpuWriteCommitPs, std::move(commit));
      }
      port.release_rx(wire);
      break;
    }
    case pcie::TlpType::kMemRead: {
      ++reads_rx_;
      read_queue_.push_back(std::move(tlp));
      read_pending_.pulse();
      port.release_rx(wire);
      break;
    }
    default:
      // Completions and vendor messages: GPUs never issue MRd in this model
      // and PEARL messages target PEACH2. The explicit default keeps the
      // rx-credit proof total — every inbound TLP returns its credits.
      ++access_errors_;
      port.release_rx(wire);
      break;
  }
}

sim::Task<> GpuDevice::read_service_loop() {
  // Serialized translation + GDDR fetch pipeline: one kGpuReadChunkBytes
  // chunk per kGpuReadServicePs. This occupancy is what caps DMA-read
  // bandwidth from the GPU at ~830 MB/s (Figure 7, "GPU (read)").
  for (;;) {
    while (read_queue_.empty()) {
      co_await read_pending_.wait();
    }
    pcie::TlpPtr req = std::move(read_queue_.front());
    read_queue_.pop_front();

    auto dev = translate(req->address, req->length);
    std::uint32_t remaining = req->length;
    while (remaining > 0) {
      const std::uint32_t chunk = std::min(
          remaining, std::min(kGpuReadChunkBytes, calib::kMaxPayloadBytes));
      co_await sim::Delay(sched_, kGpuReadServicePs);
      pcie::TlpPtr cpl = pcie::Tlp::completion(*req, chunk, remaining);
      if (dev) {
        gddr_.read(*dev + (req->length - remaining), cpl->payload);
      } else {
        ++access_errors_;
        std::fill(cpl->payload.begin(), cpl->payload.end(), std::byte{0xFF});
      }
      // In-flight pipeline latency: delays delivery, does not occupy the
      // translation unit.
      auto deliver = [this, c = std::move(cpl)]() mutable {
        send_or_queue(std::move(c));
      };
      sched_.schedule_after(kGpuReadLatencyPs, std::move(deliver));
      remaining -= chunk;
    }
  }
}

void GpuDevice::send_or_queue(pcie::TlpPtr tlp) {
  tx_queue_.push_back(std::move(tlp));
  pump_tx();
}

void GpuDevice::pump_tx() {
  TCA_ASSERT(port_ != nullptr);
  while (!tx_queue_.empty() && port_->can_send(*tx_queue_.front())) {
    port_->send(std::move(tx_queue_.front()));
    tx_queue_.pop_front();
  }
}

}  // namespace tca::gpu
