// Steady-state allocation gate: once a simulation has reached its peak queue
// depths, moving more TLPs allocates nothing more. TLP payloads and
// coroutine frames recycle through the scheduler's FrameArena, the event
// path's queues are rings that keep their buffers, and the DMAC's tag
// tables are fixed arrays, so a chain's heap traffic is a per-chain
// constant (descriptor table, driver task frame) that does not grow with
// its TLP count.
//
// The binary replaces the global operator new with a counting one, so it is
// its own executable: the count covers everything the process allocates.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "driver/peach2_driver.h"
#include "fabric/sub_cluster.h"
#include "peach2/descriptor.h"
#include "sim/arena.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t bytes) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace tca {
namespace {

using peach2::DmaDescriptor;
using peach2::DmaDirection;

constexpr std::uint32_t kDescriptorBytes = 4096;

/// A 2-node ring whose node 0 streams pipelined 4 KiB descriptors from its
/// host buffer into node 1's GPU, as `tca_explore --nodes 2 --op pipelined
/// --target remote-gpu --sizes 4096` does.
struct ChainRig {
  ChainRig()
      : cluster(sched, fabric::SubClusterConfig{
                           .node_config = {.gpu_count = 1,
                                           .host_backing_bytes = 16ull << 20,
                                           .gpu_backing_bytes = 8ull << 20}}) {
    for (std::uint32_t n = 0; n < cluster.size(); ++n) {
      auto ptr = cluster.node(n).gpu(0).mem_alloc(1 << 20);
      EXPECT_TRUE(ptr.is_ok());
      EXPECT_TRUE(cluster.driver(n).p2p().pin(0, ptr.value(), 1 << 20).is_ok());
    }
  }

  /// A chain of `n` descriptors, built in a reserved vector so that the
  /// counts below see only the simulator's allocations.
  std::vector<DmaDescriptor> chain(std::uint32_t n) {
    std::vector<DmaDescriptor> c;
    c.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint64_t off =
          static_cast<std::uint64_t>(i % 64) * kDescriptorBytes;
      c.push_back(DmaDescriptor{
          .src = cluster.driver(0).host_buffer_global(off),
          .dst = cluster.layout().encode(1, peach2::TcaTarget::kGpu0, off),
          .length = kDescriptorBytes,
          .direction = DmaDirection::kPipelined});
    }
    return c;
  }

  /// Runs `c` to completion; returns the allocations it made.
  std::uint64_t allocations_of(std::vector<DmaDescriptor> c) {
    const std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    auto task = cluster.driver(0).run_chain(std::move(c));
    sched.run();
    const std::uint64_t made =
        g_allocations.load(std::memory_order_relaxed) - before;
    EXPECT_TRUE(task.done());
    EXPECT_GT(task.result(), 0);
    return made;
  }

  sim::Scheduler sched;
  fabric::SubCluster cluster;
};

TEST(SteadyStateAllocations, ChainCostDoesNotGrowWithTlpCount) {
#if TCA_ARENA_PASSTHROUGH
  GTEST_SKIP() << "FrameArena passes every block to the heap under ASan";
#endif
  ChainRig rig;
  // The warm-up chain takes every queue, pool and arena chunk to its peak.
  rig.allocations_of(rig.chain(64));
  std::vector<DmaDescriptor> short_chain = rig.chain(16);
  std::vector<DmaDescriptor> long_chain = rig.chain(64);
  const std::uint64_t short_allocs = rig.allocations_of(std::move(short_chain));
  const std::uint64_t long_allocs = rig.allocations_of(std::move(long_chain));
  // 48 more descriptors are 768 more 256 B writes and as many completions.
  // When each TLP still allocated, the two chains cost 2,058 and 8,196
  // allocations; now each costs the same handful (4 when written).
  EXPECT_EQ(long_allocs, short_allocs);
  EXPECT_LE(long_allocs, 16u) << "the per-chain constant grew";
}

}  // namespace
}  // namespace tca
