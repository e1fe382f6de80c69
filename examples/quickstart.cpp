// Quickstart: GPU-to-GPU put across nodes through the TCA fabric.
//
// Builds a 2-node sub-cluster, allocates pinned GPU buffers on both nodes,
// and moves data from node 0's GPU directly into node 1's GPU — no host
// staging, no MPI. Verifies the bytes and reports the simulated latency and
// bandwidth.
//
// Run: ./quickstart
#include <cstdio>
#include <vector>

#include "api/tca.h"

using namespace tca;

int main() {
  sim::Scheduler sched;
  api::Runtime rt(sched, api::TcaConfig{.spec = fabric::TopologySpec::ring(2)});

  // cuMemAlloc + GPUDirect pinning on each node, one call.
  auto src = rt.alloc_gpu(/*node=*/0, /*gpu=*/0, 1 << 20);
  auto dst = rt.alloc_gpu(/*node=*/1, /*gpu=*/0, 1 << 20);
  if (!src.is_ok() || !dst.is_ok()) {
    std::fprintf(stderr, "allocation failed\n");
    return 1;
  }

  // Fill the source GPU buffer with a recognizable pattern.
  std::vector<std::byte> data(1 << 20);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i * 2654435761u >> 24);
  }
  rt.write(src.value(), 0, data);

  // One cudaMemcpyPeer-style call: node 0's PEACH2 reads its GPU over PCIe
  // and puts the bytes into node 1's GPU through the ring.
  const TimePs t0 = sched.now();
  auto copy = rt.memcpy_peer(dst.value(), 0, src.value(), 0, data.size());
  sched.run();
  const TimePs elapsed = sched.now() - t0;

  if (!copy.result().is_ok()) {
    std::fprintf(stderr, "memcpy_peer failed: %s\n",
                 copy.result().to_string().c_str());
    return 1;
  }

  std::vector<std::byte> out(data.size());
  rt.read(dst.value(), 0, out);
  if (out != data) {
    std::fprintf(stderr, "FAILED: data mismatch after transfer\n");
    return 1;
  }

  std::printf("quickstart: moved %zu bytes GPU(node0) -> GPU(node1)\n",
              data.size());
  std::printf("  elapsed   : %s\n", units::format_time(elapsed).c_str());
  std::printf("  bandwidth : %.2f Gbytes/sec\n",
              units::gbytes_per_second(data.size(), elapsed));
  std::printf("  data check: OK\n");

  // Short-message path: a 4-byte flag via PIO, the paper's low-latency
  // mechanism.
  auto flag = rt.alloc_host(1, 64);
  const TimePs t1 = sched.now();
  auto notify = rt.notify(0, flag.value(), 0, 1);
  auto wait = rt.wait_flag_ge(flag.value(), 0, 1);
  sched.run();
  std::printf("  4-byte PIO notify latency: %s\n",
              units::format_time(sched.now() - t1).c_str());
  return 0;
}
