#include "driver/peach2_driver.h"

#include <algorithm>
#include <cstring>

#include "common/log.h"
#include "common/trace.h"
#include "obs/metrics.h"

namespace tca::driver {

using peach2::DmaDescriptor;
namespace regs = peach2::regs;

namespace {
// Completion writeback word: zeroed before each polled submission; the DMAC
// overwrites it with its (never zero) completed-chain count, and a watchdog
// that finds the engine idle overwrites it with kWordReleased instead.
constexpr std::uint32_t kWordIdle = 0;
constexpr std::uint32_t kWordReleased = ~0u;
}  // namespace

Result<std::uint64_t> P2pDriver::pin(int gpu_index, gpu::DevPtr ptr,
                                     std::uint64_t len) {
  if (gpu_index < 0 || gpu_index >= node_.gpu_count()) {
    return Status{ErrorCode::kInvalidArgument, "no such GPU"};
  }
  gpu::GpuDevice& dev = node_.gpu(gpu_index);
  // Step 2 of Section IV-A2: obtain the P2P token for the allocation.
  auto token = dev.get_p2p_token(ptr);
  if (!token.is_ok()) return token.status();
  // Step 3: the P2P driver pins the pages into the PCIe address space.
  return dev.pin_pages(token.value(), ptr, len);
}

DriverHostLayout DriverHostLayout::for_dram_size(std::uint64_t dram_bytes) {
  constexpr std::uint64_t kTableBytes = 1ull << 20;
  TCA_ASSERT(dram_bytes > 2 * kTableBytes);
  return DriverHostLayout{
      .dma_buffer_offset = 0,
      .dma_buffer_bytes = dram_bytes - kTableBytes,
      .desc_table_offset = dram_bytes - kTableBytes,
      .desc_table_bytes = kTableBytes,
  };
}

Peach2Driver::Peach2Driver(node::ComputeNode& node, peach2::Peach2Chip& chip,
                           std::uint64_t reg_base)
    : node_(node),
      chip_(chip),
      reg_base_(reg_base),
      layout_(DriverHostLayout::for_dram_size(node.host_dram().size())),
      p2p_(node),
      channel_sem_(node.cpu().scheduler(), calib::kDmaChannels) {
  for (int ch = 0; ch < calib::kDmaChannels; ++ch) {
    dma_done_[static_cast<std::size_t>(ch)] =
        std::make_unique<sim::Trigger>(node.cpu().scheduler());
    free_channels_.push_back(calib::kDmaChannels - 1 - ch);  // pop() -> 0..
  }

  // Interrupt line: the handler's cost (vector dispatch, ISR prologue, TSC
  // read) is kCompletionInterruptPs; after it the driver observes which
  // channel completed.
  chip_.set_interrupt_handler([this](int channel) {
    node_.cpu().scheduler().schedule_after(
        calib::kCompletionInterruptPs, [this, channel] {
          dma_done_[static_cast<std::size_t>(channel)]->fire();
        });
  });

  // Error interrupt line (AER-flavored): the ISR services the sticky error
  // status after the same vector-dispatch latency as the completion path.
  chip_.set_error_handler([this](std::uint64_t bits) {
    ++error_irqs_;
    node_.cpu().scheduler().schedule_after(
        calib::kCompletionInterruptPs,
        [this, bits] { sim::spawn(error_isr(bits)); });
  });

  // The hardware DMAC fetches the descriptor table with MRds; the fetch
  // latency is modeled inside the DMAC, the bytes are the ones write_table
  // serialized into host DRAM.
  auto fetcher = [this](std::uint64_t table_addr, std::uint32_t count) {
    std::vector<DmaDescriptor> chain(count);
    const std::uint64_t base = table_addr - node::layout::kHostBase;
    for (std::uint32_t i = 0; i < count; ++i) {
      chain[i] = DmaDescriptor::deserialize(node_.host_dram().view(
          base + i * DmaDescriptor::kWireSize, DmaDescriptor::kWireSize));
    }
    return chain;
  };
  for (int ch = 0; ch < calib::kDmaChannels; ++ch) {
    chip_.dmac(ch).set_table_fetcher(fetcher);
  }
}

std::uint64_t Peach2Driver::table_slice_bytes() const {
  return layout_.desc_table_bytes / calib::kDmaChannels;
}

std::uint64_t Peach2Driver::table_offset(int channel) const {
  return layout_.desc_table_offset +
         static_cast<std::uint64_t>(channel) * table_slice_bytes();
}

std::uint64_t Peach2Driver::writeback_offset(int channel) const {
  // The last word of the channel's table slice (write_table stops short).
  return table_offset(channel) + table_slice_bytes() - 8;
}

sim::Task<> Peach2Driver::write_table(
    std::span<const peach2::DmaDescriptor> chain, int channel) {
  const auto image = peach2::serialize_table(chain);
  TCA_ASSERT(image.size() <= table_slice_bytes() - 8);
  node_.host_dram().write(table_offset(channel), image);
  const auto copy_ps = static_cast<TimePs>(
      static_cast<double>(image.size()) / calib::kHostCopyBytesPerSec * 1e12);
  co_await sim::Delay(node_.cpu().scheduler(), copy_ps);
}

sim::Task<> Peach2Driver::write_register(std::uint64_t offset,
                                         std::uint64_t value) {
  std::array<std::byte, 8> bytes;
  std::memcpy(bytes.data(), &value, 8);
  co_await node_.cpu().mmio_store(reg_base_ + offset, bytes);
}

sim::Task<std::uint64_t> Peach2Driver::read_register(std::uint64_t offset) {
  auto data = co_await node_.cpu().mmio_load(reg_base_ + offset, 8);
  std::uint64_t value = 0;
  std::memcpy(&value, data.data(), 8);
  co_return value;
}

sim::Task<> Peach2Driver::error_isr(std::uint64_t bits) {
  error_bits_seen_ |= bits;
  Log::write(LogLevel::kWarn, node_.cpu().scheduler().now(), "driver",
             "error interrupt, status bits " + std::to_string(bits));
  // Acknowledge the serviced bits (write-1-to-clear) so the next raise of
  // the same condition interrupts again.
  co_await write_register(regs::kErrAck, bits);
}

sim::Task<ChainResult> Peach2Driver::run_chain_reliable(
    std::vector<peach2::DmaDescriptor> chain, RetryPolicy policy,
    Source source, Completion completion,
    std::function<Status()> abort_check) {
  const std::uint32_t attempts =
      std::max<std::uint32_t>(1, policy.max_attempts);
  TimePs timeout = policy.timeout_ps;
  if (timeout <= 0) timeout = attempts > 1 ? calib::kChainWatchdogPs : 0;
  co_await channel_sem_.acquire();
  TCA_ASSERT(!free_channels_.empty());
  const int channel = free_channels_.back();  // tca-protocol: acquire(dma-channel)
  free_channels_.pop_back();

  ChainResult result;
  TimePs backoff = policy.backoff_base_ps;
  for (std::uint32_t attempt = 1; attempt <= attempts; ++attempt) {
    result.attempts = attempt;
    result.elapsed =
        co_await run_chain(chain, channel, timeout, source, completion);
    result.status = chain_status(channel);
    if (result.status.is_ok()) break;
    if (attempt == attempts) break;
    if (abort_check) {
      if (Status verdict = abort_check(); !verdict.is_ok()) {
        result.status = verdict;
        break;
      }
    }
    // Back off before re-ringing the doorbell: gives the NIOS firmware and
    // fabric manager time to fail the ring over before the next attempt.
    ++retries_;
    Log::write(LogLevel::kWarn, node_.cpu().scheduler().now(), "driver",
               "chain failed (" + result.status.to_string() +
                   "), retrying after backoff");
    co_await sim::Delay(node_.cpu().scheduler(), backoff);
    backoff *= 2;
  }

  free_channels_.push_back(channel);  // tca-protocol: release(dma-channel)
  channel_sem_.release();
  co_return result;
}

sim::Task<TimePs> Peach2Driver::run_chain(
    std::vector<peach2::DmaDescriptor> chain, int channel, TimePs timeout_ps,
    Source source, Completion completion) {
  const auto ch = static_cast<std::size_t>(channel);
  TCA_ASSERT(!dma_in_flight_[ch] && "channel already has a chain in flight");
  TCA_ASSERT(!chain.empty());
  TCA_ASSERT(chain.size() <= calib::kMaxDescriptors);
  TCA_ASSERT(source == Source::kTable || chain.size() == 1);
  dma_in_flight_[ch] = true;

  std::uint64_t kick = regs::kDmaBankDoorbell;
  if (source == Source::kTable) {
    co_await write_table(chain, channel);
    co_await write_register(regs::dma_bank(channel, regs::kDmaBankTableAddr),
                            node::layout::kHostBase + table_offset(channel));
    co_await write_register(regs::dma_bank(channel, regs::kDmaBankCount),
                            chain.size());
  } else {
    const peach2::DmaDescriptor desc = chain.front();
    co_await write_register(regs::dma_bank(channel, regs::kDmaBankImmSrc),
                            desc.src);
    co_await write_register(regs::dma_bank(channel, regs::kDmaBankImmDst),
                            desc.dst);
    co_await write_register(
        regs::dma_bank(channel, regs::kDmaBankImmLen),
        static_cast<std::uint64_t>(desc.length) |
            (static_cast<std::uint64_t>(desc.direction) << 32));
    kick = regs::kDmaBankImmKick;
  }

  const bool polled = completion == Completion::kWriteback;
  const std::uint64_t word = writeback_offset(channel);
  const std::uint64_t writeback = polled ? node::layout::kHostBase + word : 0;
  if (writeback_reg_[ch] != writeback) {
    writeback_reg_[ch] = writeback;
    co_await write_register(regs::dma_bank(channel, regs::kDmaBankWriteback),
                            writeback);
  }
  if (polled) {
    node_.cpu().write_host(word, std::as_bytes(std::span(&kWordIdle, 1)));
  }

  dma_done_[ch]->reset();
  // "the clock counter is checked just before DMA start" (Section IV-A).
  const TimePs t0 = node_.cpu().scheduler().now();
  co_await write_register(regs::dma_bank(channel, kick), 1);

  // Chain watchdog. Three cases when it fires: engine busy — abort it, the
  // teardown still raises the completion signal, so the wait below
  // finishes; engine done — the signal is already in flight, nothing to
  // do; engine idle (doorbell swallowed by a wedged engine) — nothing will
  // ever signal, so the watchdog itself releases the wait. The done bit is
  // acked after every completion, so it never describes an earlier chain.
  bool timed_out = false;
  sim::Scheduler::EventId watchdog = sim::Scheduler::kInvalidEvent;
  if (timeout_ps > 0) {
    watchdog = node_.cpu().scheduler().schedule_after(
        timeout_ps, [this, channel, ch, polled, word, &timed_out] {
          peach2::DmaController& engine = chip_.dmac(channel);
          if ((engine.status() & regs::kDmaStatusDone) != 0) return;
          ++timeouts_;
          timed_out = true;
          Log::write(LogLevel::kWarn, node_.cpu().scheduler().now(), "driver",
                     "chain watchdog expired");
          if (engine.busy()) {
            engine.abort(ErrorCode::kTimedOut);
          } else if (polled) {
            node_.cpu().write_host(
                word, std::as_bytes(std::span(&kWordReleased, 1)));
          } else {
            dma_done_[ch]->fire();
          }
        });
  }

  if (polled) {
    co_await node_.cpu().poll_host_until_change(word, kWordIdle);
  } else {
    co_await dma_done_[ch]->wait();
  }
  // "... checked again in the interrupt handler generated by the completion
  // from the DMAC in the PEACH2 driver."
  const TimePs elapsed = node_.cpu().scheduler().now() - t0;
  if (watchdog != sim::Scheduler::kInvalidEvent) node_.cpu().scheduler().cancel(watchdog);

  if (timed_out) {
    last_status_[ch] = Status{ErrorCode::kTimedOut, "chain watchdog expired"};
  } else if ((chip_.dmac(channel).status() & regs::kDmaStatusError) != 0) {
    const std::uint64_t info = chip_.dmac(channel).error_info();
    const auto code = static_cast<ErrorCode>(info >> 32);
    last_status_[ch] =
        Status{code == ErrorCode::kOk ? ErrorCode::kInternal : code,
               "DMA chain error at descriptor " +
                   std::to_string(info & 0xffffffff)};
  } else {
    last_status_[ch] = Status::ok();
  }

  co_await write_register(regs::dma_bank(channel, regs::kDmaBankIntAck), 1);
  dma_in_flight_[ch] = false;
  ++chains_run_;
  if (obs::sampling_enabled()) chain_latency_.add_time(elapsed);
  if (Trace* trace = node_.cpu().scheduler().trace()) {
    const std::string what =
        source == Source::kTable
            ? "run_chain[" + std::to_string(chain.size()) + "]"
            : std::string("run_immediate");
    trace->duration(
        "driver/node" + std::to_string(chip_.node_id()),
        what + (polled ? "+poll" : "") + "@ch" + std::to_string(channel), t0,
        t0 + elapsed);
  }
  co_return elapsed;
}

sim::Task<> Peach2Driver::pio_store(std::uint64_t global_addr,
                                    std::span<const std::byte> data) {
  // The window is mmapped into user space; a store is an ordinary MMIO
  // write whose bus address equals the global TCA address.
  ++pio_stores_;
  pio_bytes_ += data.size();
  co_await node_.cpu().mmio_store(global_addr, data);
}

sim::Task<> Peach2Driver::pio_store_u32(std::uint64_t global_addr,
                                        std::uint32_t value) {
  std::array<std::byte, 4> bytes;
  std::memcpy(bytes.data(), &value, 4);
  co_await pio_store(global_addr, bytes);
}

std::uint64_t Peach2Driver::host_buffer_global(std::uint64_t offset) const {
  TCA_ASSERT(offset < layout_.dma_buffer_bytes);
  return chip_.layout().encode(chip_.node_id(), peach2::TcaTarget::kHost,
                               layout_.dma_buffer_offset + offset);
}

std::uint64_t Peach2Driver::gpu_global(int gpu_index, gpu::DevPtr ptr) const {
  TCA_ASSERT(gpu_index == 0 || gpu_index == 1);
  return chip_.layout().encode(chip_.node_id(),
                               gpu_index == 0 ? peach2::TcaTarget::kGpu0
                                              : peach2::TcaTarget::kGpu1,
                               ptr);
}

std::uint64_t Peach2Driver::internal_global(std::uint64_t offset) const {
  return chip_.internal_block_base() + peach2::Peach2Chip::kInternalRamOffset +
         offset;
}

}  // namespace tca::driver
