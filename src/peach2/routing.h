// PEACH2 routing table (Section III-E, Fig. 5).
//
// "the control registers for the address mask, the lower bound, and the
//  upper bound are prepared, and the destination port is statically decided
//  by checking the result from the AND operation with the address mask."
//
// Each entry holds (mask, lower, upper, port); a destination address matches
// when lower <= (addr & mask) <= upper. Entries are evaluated in order and
// the first match wins — no table search or per-packet address conversion.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/error.h"

namespace tca::peach2 {

/// The PCIe ports of the chip plus the internal destination (DMAC /
/// internal RAM / register mailbox). The paper's board exposes N/E/W/S;
/// the torus build stuffs three more cable ports onto the expansion
/// mezzanine so each dimension gets a +/- pair: E/W serve X, S/Y- serve Y,
/// Z+/Z- serve Z. Ring topologies leave ports 3..6 (or 4..6) unattached.
enum class PortId : std::uint8_t {
  kNorth = 0,  ///< to the host CPU (always)
  kEast = 1,   ///< ring / torus X+, fixed EP role
  kWest = 2,   ///< ring / torus X-, fixed RC role
  kSouth = 3,  ///< ring-coupling port / torus Y+, role selectable
  kYNeg = 4,   ///< torus Y-
  kZPos = 5,   ///< torus Z+
  kZNeg = 6,   ///< torus Z-
  kInternal = 7,
};
inline constexpr std::size_t kPortCount = 7;  // physical PCIe ports

/// Cable ports serving torus dimension `dim` (0 = X, 1 = Y, 2 = Z) in the
/// increasing / decreasing coordinate direction.
constexpr PortId torus_plus_port(std::uint32_t dim) {
  return dim == 0 ? PortId::kEast : dim == 1 ? PortId::kSouth : PortId::kZPos;
}
constexpr PortId torus_minus_port(std::uint32_t dim) {
  return dim == 0 ? PortId::kWest : dim == 1 ? PortId::kYNeg : PortId::kZNeg;
}

struct RouteEntry {
  std::uint64_t mask = ~0ull;
  std::uint64_t lower = 0;
  std::uint64_t upper = 0;
  PortId port = PortId::kNorth;

  [[nodiscard]] bool matches(std::uint64_t addr) const {
    const std::uint64_t masked = addr & mask;
    return masked >= lower && masked <= upper;
  }
};

class RoutingTable {
 public:
  /// Register-file capacity for route entries.
  static constexpr std::size_t kCapacity = 64;

  Status add(const RouteEntry& entry);
  void clear() { entries_.clear(); }

  /// First matching entry's port, or nullopt (packet is dropped and counted
  /// by the chip — an unroutable address is a configuration error).
  [[nodiscard]] std::optional<PortId> lookup(std::uint64_t addr) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const RouteEntry& entry(std::size_t i) const {
    return entries_.at(i);
  }
  /// Mutable access for register-file writes (entry i may be rewritten).
  RouteEntry& entry_mut(std::size_t i);

 private:
  std::vector<RouteEntry> entries_;
};

}  // namespace tca::peach2
