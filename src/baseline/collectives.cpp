#include "baseline/collectives.h"

#include <cstring>

namespace tca::baseline {

namespace {
/// Tag space partitioning: collectives use high tags so they never collide
/// with application point-to-point traffic.
constexpr int kAllreduceTagBase = 1 << 21;
}  // namespace

sim::Task<> Collectives::allreduce_sum(std::uint32_t rank,
                                       std::span<double> data) {
  TCA_ASSERT(data.size() % ranks_ == 0);
  const std::size_t chunk = data.size() / ranks_;
  const std::uint32_t next = (rank + 1) % ranks_;
  const std::uint32_t prev = (rank + ranks_ - 1) % ranks_;

  auto chunk_bytes = [&](std::uint32_t c) {
    return std::as_bytes(std::span(data.data() + c * chunk, chunk));
  };

  // Phase 1: reduce-scatter.
  for (std::uint32_t s = 0; s < ranks_ - 1; ++s) {
    const std::uint32_t send_chunk = (rank + ranks_ - s) % ranks_;
    const std::uint32_t recv_chunk = (rank + ranks_ - s - 1) % ranks_;
    const int tag = kAllreduceTagBase + static_cast<int>(s);
    sim::Task<> tx = mpi_.send(rank, next, tag, chunk_bytes(send_chunk));
    std::vector<std::byte> incoming = co_await mpi_.recv(rank, prev, tag);
    co_await std::move(tx);
    TCA_ASSERT(incoming.size() == chunk * sizeof(double));
    const auto* in = reinterpret_cast<const double*>(incoming.data());
    for (std::size_t i = 0; i < chunk; ++i) {
      data[recv_chunk * chunk + i] += in[i];
    }
  }
  // Phase 2: allgather.
  for (std::uint32_t s = 0; s < ranks_ - 1; ++s) {
    const std::uint32_t send_chunk = (rank + 1 + ranks_ - s) % ranks_;
    const std::uint32_t recv_chunk = (rank + ranks_ - s) % ranks_;
    const int tag = kAllreduceTagBase + 1024 + static_cast<int>(s);
    sim::Task<> tx = mpi_.send(rank, next, tag, chunk_bytes(send_chunk));
    std::vector<std::byte> incoming = co_await mpi_.recv(rank, prev, tag);
    co_await std::move(tx);
    std::memcpy(data.data() + recv_chunk * chunk, incoming.data(),
                incoming.size());
  }
}

}  // namespace tca::baseline
