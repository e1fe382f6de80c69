#include "peach2/tca_layout.h"

#include <string>

#include "calib/calibration.h"

namespace tca::peach2 {

namespace {
bool is_power_of_two(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }
}  // namespace

Result<TcaLayout> TcaLayout::create(std::uint64_t window_base,
                                    std::uint64_t window_size,
                                    std::uint32_t node_count) {
  // The layout itself only needs power-of-two partitioning up to the
  // torus-scale fabric bound; per-topology node-count rules (the paper's
  // [2, 16] ring) live in fabric::TopologySpec::validate().
  if (node_count == 0 || node_count > calib::kMaxFabricNodes ||
      !is_power_of_two(node_count)) {
    return Status{ErrorCode::kInvalidArgument,
                  "node count must be a power of two in [1, " +
                      std::to_string(calib::kMaxFabricNodes) + "]"};
  }
  if (!is_power_of_two(window_size) ||
      window_size < node_count * kTcaTargetCount) {
    return Status{ErrorCode::kInvalidArgument,
                  "window size must be a power of two covering all blocks"};
  }
  if (window_base % window_size != 0) {
    return Status{ErrorCode::kUnaligned,
                  "window base must be aligned to the window size"};
  }
  return TcaLayout{window_base, window_size, node_count};
}

}  // namespace tca::peach2
