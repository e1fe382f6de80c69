#include "api/tca.h"

#include <algorithm>
#include <cstring>
#include <functional>

#include "common/units.h"
#include "pcie/tlp.h"

namespace tca::api {

using peach2::DmaDescriptor;
using peach2::DmaDirection;
using peach2::TcaTarget;

namespace {

// The task of a copy call its prologue settled before any traffic. Calls
// with nothing left to do once the chain completes return submit()'s task
// directly instead of awaiting it in a coroutine frame of their own.
sim::Task<Status> settled(Status st) { co_return st; }

}  // namespace

Status Runtime::validate_config(const TcaConfig& config) {
  // Per-topology shape rules (ring [2, 16], torus extents/route capacity)
  // live with the spec itself.
  const fabric::TopologySpec& spec = config.spec;
  if (Status st = spec.validate(); !st.is_ok()) return st;
  // The address window must still partition across the nodes.
  auto layout = peach2::TcaLayout::create(
      calib::kTcaWindowBase, calib::kTcaWindowBytes, spec.node_count());
  if (!layout.is_ok()) return layout.status();
  if (config.node_config.gpu_count < 1 || config.node_config.gpu_count > 4) {
    return {ErrorCode::kInvalidArgument,
            "per-node GPU count must be 1..4 (two per socket)"};
  }
  // The driver carves its descriptor table out of the last megabyte of host
  // DRAM (DriverHostLayout); anything smaller cannot hold a DMA buffer.
  if (config.node_config.host_backing_bytes <= 2ull << 20) {
    return {ErrorCode::kInvalidArgument,
            "host backing store must exceed 2 MiB (descriptor table + DMA "
            "buffer)"};
  }
  if (config.node_config.gpu_backing_bytes == 0) {
    return {ErrorCode::kInvalidArgument, "GPU backing store must be > 0"};
  }
  // Fault-plan events must name resources the configured fabric actually has
  // (an out-of-range cable would never fire and the campaign would silently
  // test nothing).
  if (Status st = config.fault_plan.validate(spec); !st.is_ok()) return st;
  return Status::ok();
}

Result<Runtime> Runtime::create(sim::Scheduler& sched,
                                const TcaConfig& config) {
  if (Status st = validate_config(config); !st.is_ok()) return st;
  return Runtime(sched, config);
}

Runtime::Runtime(sim::Scheduler& sched, const TcaConfig& config)
    : sched_(sched),
      cluster_((TCA_ASSERT(validate_config(config).is_ok()),
                std::make_unique<fabric::SubCluster>(
                    sched, fabric::SubClusterConfig{
                               .spec = config.spec,
                               .node_config = config.node_config,
                               .cable_bit_error_rate =
                                   config.cable_bit_error_rate,
                               .fault_plan = config.fault_plan,
                               .enable_failover = config.enable_failover,
                           }))),
      host_alloc_cursor_(cluster_->size(), 0) {}

Result<Buffer> Runtime::alloc_host(std::uint32_t node, std::uint64_t bytes) {
  if (node >= node_count()) {
    return Status{ErrorCode::kInvalidArgument, "no such node"};
  }
  if (bytes == 0) {
    return Status{ErrorCode::kInvalidArgument, "zero-size buffer"};
  }
  auto& cursor = host_alloc_cursor_[node];
  const std::uint64_t base = (cursor + 255) & ~255ull;
  const auto& region = cluster_->driver(node).host_layout();
  if (!units::range_fits(base, bytes, region.dma_buffer_bytes)) {
    return Status{ErrorCode::kResourceExhausted, "host DMA region exhausted"};
  }
  cursor = base + bytes;
  return Buffer{.node = node,
                .target = TcaTarget::kHost,
                .block_offset = region.dma_buffer_offset + base,
                .size = bytes};
}

Result<Buffer> Runtime::alloc_gpu(std::uint32_t node, int gpu,
                                  std::uint64_t bytes) {
  if (node >= node_count()) {
    return Status{ErrorCode::kInvalidArgument, "no such node"};
  }
  if (gpu != 0 && gpu != 1) {
    return Status{ErrorCode::kInvalidArgument,
                  "PEACH2 reaches only GPU0/GPU1 (QPI crossing prohibited)"};
  }
  if (gpu >= cluster_->node(node).gpu_count()) {
    return Status{ErrorCode::kInvalidArgument, "node has no such GPU"};
  }
  auto ptr = cluster_->node(node).gpu(gpu).mem_alloc(bytes);
  if (!ptr.is_ok()) return ptr.status();
  auto pinned = cluster_->driver(node).p2p().pin(gpu, ptr.value(), bytes);
  if (!pinned.is_ok()) return pinned.status();
  return Buffer{.node = node,
                .target = gpu == 0 ? TcaTarget::kGpu0 : TcaTarget::kGpu1,
                .block_offset = ptr.value(),
                .size = bytes};
}

std::uint64_t Runtime::global_addr(const Buffer& buf,
                                   std::uint64_t offset) const {
  return cluster_->layout().encode(buf.node, buf.target,
                                  buf.block_offset + offset);
}

Status Runtime::validate(const Buffer& buf, std::uint64_t offset,
                         std::uint64_t bytes) const {
  if (buf.node >= node_count()) {
    return {ErrorCode::kInvalidArgument, "buffer on unknown node"};
  }
  if (!units::range_fits(offset, bytes, buf.size)) {
    return {ErrorCode::kOutOfRange, "access outside buffer"};
  }
  return Status::ok();
}

Status Runtime::validate_blocks(const Buffer& buf, std::uint64_t offset,
                                std::uint64_t stride,
                                std::uint64_t block_bytes,
                                std::uint32_t count) const {
  if (Status st = validate(buf, offset, block_bytes); !st.is_ok()) return st;
  // Overflow-safe form of offset + (count - 1) * stride + block_bytes <=
  // size: the last block may start at most `room` past the first.
  const std::uint64_t room = buf.size - offset - block_bytes;
  if (count > 1 && stride > room / (count - 1)) {
    return {ErrorCode::kOutOfRange, "access outside buffer"};
  }
  return Status::ok();
}

Status Runtime::check_reachable(std::uint32_t from, std::uint32_t to) const {
  if (cluster_->reachable(from, to)) return Status::ok();
  return {ErrorCode::kUnreachable,
          "node " + std::to_string(to) + " is unreachable from node " +
              std::to_string(from) +
              ": every dimension-order route crosses a dead cable"};
}

Status Runtime::check_copy(const CopyOp& op, std::uint64_t dst_stride,
                           std::uint64_t src_stride,
                           std::uint32_t count) const {
  if (Status st =
          validate_blocks(op.dst, op.dst_off, dst_stride, op.bytes, count);
      !st.is_ok()) {
    return st;
  }
  if (Status st =
          validate_blocks(op.src, op.src_off, src_stride, op.bytes, count);
      !st.is_ok()) {
    return st;
  }
  return check_reachable(op.src.node, op.dst.node);
}

void Runtime::count_copy(std::uint64_t bytes, bool pio) {
  ++metrics_.memcpy_ops;
  metrics_.memcpy_bytes += bytes;
  ++(pio ? metrics_.pio_ops : metrics_.dma_ops);
}

DmaDescriptor Runtime::descriptor(const CopyOp& op) const {
  return DmaDescriptor{.src = global_addr(op.src, op.src_off),
                       .dst = global_addr(op.dst, op.dst_off),
                       .length = static_cast<std::uint32_t>(op.bytes),
                       .direction = DmaDirection::kPipelined};
}

void Runtime::write(const Buffer& buf, std::uint64_t offset,
                    std::span<const std::byte> data) {
  TCA_ASSERT(validate(buf, offset, data.size()).is_ok());
  node::ComputeNode& n = cluster_->node(buf.node);
  if (buf.is_host()) {
    n.host_dram().write(buf.block_offset + offset, data);
  } else {
    n.gpu(*buf.gpu_index()).poke(buf.block_offset + offset, data);
  }
}

void Runtime::read(const Buffer& buf, std::uint64_t offset,
                   std::span<std::byte> out) const {
  TCA_ASSERT(validate(buf, offset, out.size()).is_ok());
  // cluster_ accessors are non-const; the runtime object itself is the
  // logical owner, so a const_cast here is confined and safe.
  auto& cluster = const_cast<fabric::SubCluster&>(*cluster_);
  node::ComputeNode& n = cluster.node(buf.node);
  if (buf.is_host()) {
    n.host_dram().read(buf.block_offset + offset, out);
  } else {
    n.gpu(*buf.gpu_index()).peek(buf.block_offset + offset, out);
  }
}

sim::Task<Status> Runtime::memcpy_peer(Buffer dst, std::uint64_t dst_off,
                                       Buffer src, std::uint64_t src_off,
                                       std::uint64_t bytes) {
  // Short host-sourced messages: PIO stores through the mmapped window.
  if (src.is_host() && bytes <= kPioThreshold) {
    return memcpy_pio(dst, dst_off, src, src_off, bytes);
  }
  // Everything else: one pipelined DMA descriptor driven by the source
  // node's PEACH2 (local source requirement == put-only fabric).
  return memcpy_dma(CopyOp{.dst = dst,
                           .dst_off = dst_off,
                           .src = src,
                           .src_off = src_off,
                           .bytes = bytes});
}

sim::Task<Status> Runtime::memcpy_dma(CopyOp op) {
  if (Status st = check_copy(op); !st.is_ok()) co_return st;
  if (op.bytes == 0) co_return Status::ok();
  count_copy(op.bytes, /*pio=*/false);
  const TimePs t0 = sched_.now();
  std::vector<DmaDescriptor> chain{descriptor(op)};
  const Status st =
      co_await submit(op.src.node, std::move(chain), {}, driver::Source::kTable,
                      driver::Completion::kInterrupt, nullptr);
  if (obs::sampling_enabled()) {
    metrics_.memcpy_latency_ps.add_time(sched_.now() - t0);
  }
  co_return st;
}

sim::Task<Status> Runtime::memcpy_peer_batch(std::uint32_t driving_node,
                                             std::vector<CopyOp> ops,
                                             driver::RetryPolicy policy,
                                             std::uint32_t* retries_out) {
  if (retries_out != nullptr) *retries_out = 0;
  if (ops.size() > calib::kMaxDescriptors) {
    return settled(Status{ErrorCode::kInvalidArgument,
                          "batch exceeds descriptor-chain capacity"});
  }
  std::vector<DmaDescriptor> chain;
  chain.reserve(ops.size());
  for (const CopyOp& op : ops) {
    if (op.src.node != driving_node) {
      return settled(Status{ErrorCode::kPermissionDenied,
                            "put-only fabric: batch sources must be local "
                            "to the driving node"});
    }
    if (Status st = check_copy(op); !st.is_ok()) return settled(st);
    if (op.bytes > 0) chain.push_back(descriptor(op));
  }
  if (chain.empty()) return settled(Status::ok());
  ++metrics_.batches;
  metrics_.batch_ops += chain.size();
  return submit(driving_node, std::move(chain), policy,
                driver::Source::kTable, driver::Completion::kInterrupt,
                retries_out);
}

sim::Task<Status> Runtime::memcpy_block_stride(
    Buffer dst, std::uint64_t dst_off, std::uint64_t dst_stride, Buffer src,
    std::uint64_t src_off, std::uint64_t src_stride,
    std::uint64_t block_bytes, std::uint32_t count) {
  if (count > calib::kMaxDescriptors) {
    return settled(Status{ErrorCode::kInvalidArgument,
                          "block count exceeds descriptor-chain capacity"});
  }
  CopyOp block{.dst = dst,
               .dst_off = dst_off,
               .src = src,
               .src_off = src_off,
               .bytes = block_bytes};
  if (Status st = check_copy(block, dst_stride, src_stride, count);
      !st.is_ok()) {
    return settled(st);
  }
  if (count == 0 || block_bytes == 0) return settled(Status::ok());
  ++metrics_.block_stride_ops;
  std::vector<DmaDescriptor> chain;
  chain.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    chain.push_back(descriptor(block));
    block.dst_off += dst_stride;
    block.src_off += src_stride;
  }
  return submit(src.node, std::move(chain), {}, driver::Source::kTable,
                driver::Completion::kInterrupt, nullptr);
}

sim::Task<Status> Runtime::submit(std::uint32_t node,
                                  std::vector<DmaDescriptor> chain,
                                  driver::RetryPolicy policy,
                                  driver::Source source,
                                  driver::Completion completion,
                                  std::uint32_t* retries_out) {
  // Between attempts, ask the fabric manager whether every destination is
  // still dimension-order reachable: a partition that forms mid-transfer
  // then surfaces as kUnreachable after the current attempt's deadline
  // instead of after the full attempts-times-deadline budget. A single
  // attempt never consults it, so it is only built for a retrying policy.
  std::function<Status()> abort_check;
  if (policy.max_attempts > 1) {
    std::vector<std::uint32_t> dst_nodes;
    for (const DmaDescriptor& d : chain) {
      const std::uint32_t dst = cluster_->layout().decode(d.dst)->node;
      if (std::find(dst_nodes.begin(), dst_nodes.end(), dst) ==
          dst_nodes.end()) {
        dst_nodes.push_back(dst);
      }
    }
    abort_check = [this, node, dst_nodes = std::move(dst_nodes)]() -> Status {
      for (const std::uint32_t dst : dst_nodes) {
        if (Status st = check_reachable(node, dst); !st.is_ok()) return st;
      }
      return Status::ok();
    };
  }
  const driver::ChainResult result =
      co_await cluster_->driver(node).run_chain_reliable(
          std::move(chain), policy, source, completion, std::move(abort_check));
  if (retries_out != nullptr) *retries_out = result.attempts - 1;
  co_return result.status;
}

void Runtime::export_metrics(obs::MetricRegistry& reg) const {
  reg.counter("api.memcpy.ops").set(metrics_.memcpy_ops);
  reg.counter("api.memcpy.bytes").set(metrics_.memcpy_bytes);
  reg.counter("api.memcpy.pio_ops").set(metrics_.pio_ops);
  reg.counter("api.memcpy.dma_ops").set(metrics_.dma_ops);
  reg.counter("api.batch.calls").set(metrics_.batches);
  reg.counter("api.batch.ops").set(metrics_.batch_ops);
  reg.counter("api.block_stride.calls").set(metrics_.block_stride_ops);
  reg.counter("api.notify.ops").set(metrics_.notify_ops);
  reg.counter("api.wait_flag.ops").set(metrics_.wait_flag_ops);
  if (!metrics_.memcpy_latency_ps.empty()) {
    reg.histogram("api.memcpy.latency_ps")
        .record_series(metrics_.memcpy_latency_ps);
  }
  cluster_->export_metrics(reg);
}

sim::Task<> Runtime::notify(std::uint32_t from_node, Buffer host_flag,
                            std::uint64_t offset, std::uint32_t value) {
  TCA_ASSERT(host_flag.is_host());
  TCA_ASSERT(validate(host_flag, offset, 4).is_ok());
  ++metrics_.notify_ops;
  co_await cluster_->driver(from_node).pio_store_u32(
      global_addr(host_flag, offset), value);
}

sim::Task<Status> Runtime::wait_flag_ge(Buffer host_flag, std::uint64_t offset,
                                        std::uint32_t expected,
                                        TimePs timeout_ps) {
  TCA_ASSERT(host_flag.is_host());
  TCA_ASSERT(validate(host_flag, offset, 4).is_ok());
  ++metrics_.wait_flag_ops;
  const std::span<const std::byte> word =
      cluster_->node(host_flag.node)
          .host_dram()
          .view(host_flag.block_offset + offset, 4);
  const auto value = [word] {
    std::uint32_t v = 0;
    std::memcpy(&v, word.data(), sizeof v);
    return v;
  };
  const TimePs deadline = timeout_ps > 0 ? sched_.now() + timeout_ps : 0;
  co_await sim::PollUntil(sched_, calib::kCpuPollIterationPs, [&] {
    return value() >= expected || (deadline > 0 && sched_.now() >= deadline);
  });
  // A flag that lands on the deadline's own tick still counts.
  if (value() >= expected) co_return Status::ok();
  co_return Status{ErrorCode::kTimedOut, "flag wait deadline expired"};
}

sim::Task<Status> Runtime::memcpy_pio(Buffer dst, std::uint64_t dst_off,
                                      Buffer src, std::uint64_t src_off,
                                      std::uint64_t bytes) {
  if (!src.is_host()) {
    co_return Status{ErrorCode::kInvalidArgument,
                     "PIO stores source host memory (the CPU issues them)"};
  }
  if (Status st = check_copy(CopyOp{.dst = dst,
                                    .dst_off = dst_off,
                                    .src = src,
                                    .src_off = src_off,
                                    .bytes = bytes});
      !st.is_ok()) {
    co_return st;
  }
  if (bytes == 0) co_return Status::ok();
  count_copy(bytes, /*pio=*/true);
  const TimePs t0 = sched_.now();
  // Read the source once, now: reading it per 150 ns store would see bytes
  // the caller may have rewritten since. The staging block comes from the
  // running scheduler's arena, not the heap.
  pcie::Payload staged(bytes);
  read(src, src_off, staged);
  co_await cluster_->driver(src.node).pio_store(global_addr(dst, dst_off),
                                                staged);
  if (obs::sampling_enabled()) {
    metrics_.memcpy_latency_ps.add_time(sched_.now() - t0);
  }
  co_return Status::ok();
}

sim::Task<Status> Runtime::memcpy_peer_reliable(
    Buffer dst, std::uint64_t dst_off, Buffer src, std::uint64_t src_off,
    std::uint64_t bytes, driver::RetryPolicy policy,
    std::uint32_t* retries_out) {
  if (retries_out != nullptr) *retries_out = 0;
  const CopyOp op{.dst = dst,
                  .dst_off = dst_off,
                  .src = src,
                  .src_off = src_off,
                  .bytes = bytes};
  if (Status st = check_copy(op); !st.is_ok()) return settled(st);
  if (bytes == 0) return settled(Status::ok());
  count_copy(bytes, /*pio=*/false);
  return submit(src.node, {descriptor(op)}, policy,
                driver::Source::kImmediate, driver::Completion::kWriteback,
                retries_out);
}

}  // namespace tca::api
