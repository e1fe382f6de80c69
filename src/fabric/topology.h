// Fabric topology descriptions (Section II-B and beyond).
//
// The paper's sub-cluster is a ring of 2..16 PEACH2 boards (optionally two
// rings coupled over the South ports). The APEnet+ line shows where the
// architecture goes next: a 3D torus of FPGA NICs. `TopologySpec` is the
// value type the public config surfaces carry to describe either.
//
// Torus node ids are linearized dimension-major, x fastest:
//   id = x + y*X + z*X*Y
// Routing is dimension-ordered from the highest dimension down (correct Z,
// then Y, then X), which is what lets the per-node route tables compress to
// sum(extent_d - 1) address-range entries: all destinations in a wrong
// Z-plane share one contiguous slice range, all destinations in a wrong row
// of the right plane share another, and only same-row targets need
// single-slice entries.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"

namespace tca::fabric {

/// Index of an inter-node cable inside a SubCluster (creation order).
using CableId = std::size_t;

class TopologySpec {
 public:
  enum class Kind : std::uint8_t {
    kRing,      ///< the paper's E/W ring
    kDualRing,  ///< two rings coupled over the S ports
    kTorus,     ///< 1D/2D/3D torus, dimension-order routed
  };

  /// At most three torus dimensions (X, Y, Z) — one port pair each.
  static constexpr std::uint32_t kMaxDims = 3;

  /// Default-constructed spec is *empty* (no nodes); validate() rejects it.
  constexpr TopologySpec() = default;

  static TopologySpec ring(std::uint32_t nodes);
  static TopologySpec dual_ring(std::uint32_t nodes);
  /// `extents` lists per-dimension sizes, x first; 1..3 dimensions. A 1D
  /// torus is wired and routed identically to ring(extents[0]).
  static TopologySpec torus(const std::vector<std::uint32_t>& extents);

  [[nodiscard]] constexpr Kind kind() const { return kind_; }
  [[nodiscard]] constexpr bool empty() const { return extents_[0] == 0; }
  [[nodiscard]] constexpr std::uint32_t dims() const { return dims_; }
  [[nodiscard]] constexpr std::uint32_t extent(std::uint32_t dim) const {
    return extents_[dim];
  }
  [[nodiscard]] constexpr std::uint32_t node_count() const {
    std::uint32_t n = 1;
    for (std::uint32_t d = 0; d < dims_; ++d) n *= extents_[d];
    return empty() ? 0 : n;
  }

  /// Per-topology construction rules. Rings keep the paper's sub-cluster
  /// bounds (power of two in [2, 16]; dual ring needs >= 4). Tori accept
  /// any 1-3 dimension shape whose extents are >= 2, whose node product is
  /// a power of two (the layout decodes slices by masked compare alone) at
  /// most calib::kMaxFabricNodes, and whose compressed route-entry count
  /// sum(extent_d - 1) fits the chip's table. Violations name the offending
  /// dimension.
  [[nodiscard]] Status validate() const;

  /// Dimension-order route-entry count each node needs: sum(extent_d - 1)
  /// for ring/torus, node_count - 1 for the dual ring (own ring + cross
  /// entries).
  [[nodiscard]] std::uint32_t route_entries_per_node() const;

  /// Number of inter-node cables the sub-cluster builder lays for this
  /// topology: n for the ring (a 2-node ring is two back-to-back cables),
  /// n + n/2 for the dual ring (two half rings plus the South cross-links),
  /// and dims * n for a torus (one full cable ring per dimension). This is
  /// the valid-CableId bound a FaultPlan is validated against.
  [[nodiscard]] constexpr std::uint32_t cable_count() const {
    const std::uint32_t n = node_count();
    switch (kind_) {
      case Kind::kRing: return n;
      case Kind::kDualRing: return n + n / 2;
      case Kind::kTorus: return dims_ * n;
    }
    return 0;
  }

  /// Torus coordinates of a node id (unused dimensions read 0).
  [[nodiscard]] std::array<std::uint32_t, kMaxDims> coords(
      std::uint32_t node) const;
  [[nodiscard]] std::uint32_t node_at(
      const std::array<std::uint32_t, kMaxDims>& c) const;

  /// Shortest distance along dimension `dim`'s ring between two
  /// coordinates.
  [[nodiscard]] std::uint32_t ring_distance(std::uint32_t dim,
                                            std::uint32_t from,
                                            std::uint32_t to) const;

  /// Hop count from node `from` to node `to` as the routing tables steer
  /// it: the per-dimension ring distances summed (dimension-order routing
  /// takes the shortest way around each ring in turn). For the dual ring:
  /// ride the own ring to the pairing position, then one S hop.
  [[nodiscard]] std::uint32_t hops(std::uint32_t from, std::uint32_t to) const;

  /// A Hamiltonian cycle over the nodes in which consecutive entries are
  /// fabric neighbors (boustrophedon over the torus dimensions); identity
  /// for ring/dual-ring. This is the rank order the collective library
  /// rides so its logical ring maps onto physical cables.
  [[nodiscard]] std::vector<std::uint32_t> ring_order() const;

  /// "ring" | "dual-ring" | "torus:XxY[xZ]".
  [[nodiscard]] std::string to_string() const;
  /// Parses the to_string()/CLI grammar; shape errors come back as
  /// kInvalidArgument (validate() still applies separately).
  static Result<TopologySpec> parse(std::string_view text);

  bool operator==(const TopologySpec&) const = default;

 private:
  constexpr TopologySpec(Kind kind, std::array<std::uint32_t, kMaxDims> e,
                         std::uint32_t dims)
      : kind_(kind), extents_(e), dims_(dims) {}

  Kind kind_ = Kind::kRing;
  std::array<std::uint32_t, kMaxDims> extents_ = {0, 1, 1};
  std::uint32_t dims_ = 1;
};

}  // namespace tca::fabric
