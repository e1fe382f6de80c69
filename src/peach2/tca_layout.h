// Global TCA address-space layout (Fig. 4 of the paper).
//
// PEACH2 reserves one large PCIe window (512 GB in the paper). The window is
// split into equal, aligned per-node slices; each slice is split into equal
// aligned blocks for the targets reachable inside that node: GPU0, GPU1, the
// host memory, and the PEACH2-internal region. Because everything is
// power-of-two aligned, a router decides the output port by comparing upper
// address bits only — no table search or address conversion on the way
// (Section III-E).
#pragma once

#include <cstdint>
#include <optional>

#include "common/error.h"

namespace tca::peach2 {

/// Targets addressable inside one node's slice, in block order.
enum class TcaTarget : std::uint32_t {
  kGpu0 = 0,
  kGpu1 = 1,
  kHost = 2,
  kInternal = 3,
};
inline constexpr std::uint32_t kTcaTargetCount = 4;

struct TcaLocation {
  std::uint32_t node;
  TcaTarget target;
  std::uint64_t offset;  ///< byte offset inside the target's block
};

/// The window geometry. Identical on every node of a sub-cluster ("the
/// address offset information for each node can be commonly shared by every
/// node").
struct TcaLayout {
  std::uint64_t window_base = 0;
  std::uint64_t window_size = 0;
  std::uint32_t node_count = 0;

  /// Builds the layout for `node_count` nodes (power of two, <= 16) over
  /// [window_base, window_base + window_size).
  static Result<TcaLayout> create(std::uint64_t window_base,
                                  std::uint64_t window_size,
                                  std::uint32_t node_count);

  [[nodiscard]] std::uint64_t slice_size() const {
    return window_size / node_count;
  }
  [[nodiscard]] std::uint64_t block_size() const {
    return slice_size() / kTcaTargetCount;
  }

  [[nodiscard]] std::uint64_t slice_base(std::uint32_t node) const {
    return window_base + node * slice_size();
  }

  /// Global address of (node, target, offset).
  [[nodiscard]] std::uint64_t encode(std::uint32_t node, TcaTarget target,
                                     std::uint64_t offset) const {
    TCA_ASSERT(node < node_count);
    TCA_ASSERT(offset < block_size());
    return slice_base(node) +
           static_cast<std::uint64_t>(target) * block_size() + offset;
  }

  /// Decodes a global address; nullopt if outside the window.
  [[nodiscard]] std::optional<TcaLocation> decode(std::uint64_t addr) const {
    if (addr < window_base || addr >= window_base + window_size) {
      return std::nullopt;
    }
    const std::uint64_t rel = addr - window_base;
    const std::uint32_t node = static_cast<std::uint32_t>(rel / slice_size());
    const std::uint64_t in_slice = rel % slice_size();
    const auto target = static_cast<TcaTarget>(in_slice / block_size());
    return TcaLocation{node, target, in_slice % block_size()};
  }

  [[nodiscard]] bool contains(std::uint64_t addr) const {
    return addr >= window_base && addr < window_base + window_size;
  }
};

}  // namespace tca::peach2
