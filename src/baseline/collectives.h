// MPI-style ring allreduce over MpiLite: the conventional-stack comparison
// for the TCA collective benches and examples (allreduce_ring).
#pragma once

#include <cstdint>
#include <span>

#include "baseline/mpi_lite.h"

namespace tca::baseline {

class Collectives {
 public:
  Collectives(MpiLite& mpi, std::uint32_t ranks)
      : mpi_(mpi), ranks_(ranks) {}

  [[nodiscard]] std::uint32_t ranks() const { return ranks_; }

  /// Ring allreduce (sum) of doubles, in place. Classic two-phase
  /// reduce-scatter + allgather; every rank ends with the identical global
  /// sum. `data.size()` must be divisible by the rank count.
  sim::Task<> allreduce_sum(std::uint32_t rank, std::span<double> data);

 private:
  MpiLite& mpi_;
  std::uint32_t ranks_;
};

}  // namespace tca::baseline
