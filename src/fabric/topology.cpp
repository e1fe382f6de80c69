#include "fabric/topology.h"

#include <charconv>

#include "calib/calibration.h"
#include "peach2/routing.h"

namespace tca::fabric {

namespace {

bool is_power_of_two(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

constexpr const char* kDimNames[TopologySpec::kMaxDims] = {"x", "y", "z"};

}  // namespace

// The largest advertised torus (calib::kMaxFabricNodes as a square) must
// compress into the chip's route table; validate() enforces the same bound
// per shape at runtime, this pins the register-file sizing at compile time.
static_assert(2 * (32 - 1) <= peach2::RoutingTable::kCapacity,
              "route table too small for the 32x32 torus (2*(E-1) entries)");
static_assert(3 * (calib::kMaxTorusExtent3D - 1) <=
                  peach2::RoutingTable::kCapacity,
              "route table too small for the max cubic torus");

TopologySpec TopologySpec::ring(std::uint32_t nodes) {
  return TopologySpec{Kind::kRing, {nodes, 1, 1}, 1};
}

TopologySpec TopologySpec::dual_ring(std::uint32_t nodes) {
  return TopologySpec{Kind::kDualRing, {nodes, 1, 1}, 1};
}

TopologySpec TopologySpec::torus(const std::vector<std::uint32_t>& extents) {
  TCA_ASSERT(!extents.empty() && extents.size() <= kMaxDims);
  std::array<std::uint32_t, kMaxDims> e = {1, 1, 1};
  for (std::size_t d = 0; d < extents.size(); ++d) e[d] = extents[d];
  return TopologySpec{Kind::kTorus, e,
                      static_cast<std::uint32_t>(extents.size())};
}

Status TopologySpec::validate() const {
  if (empty()) {
    return {ErrorCode::kInvalidArgument, "topology spec is empty"};
  }
  const std::uint32_t n = node_count();
  switch (kind_) {
    case Kind::kRing:
      if (n < 2 || n > calib::kMaxSubClusterNodes || !is_power_of_two(n)) {
        return {ErrorCode::kInvalidArgument,
                "ring node count must be a power of two in [2, 16]"};
      }
      return Status::ok();
    case Kind::kDualRing:
      if (n < 4 || n > calib::kMaxSubClusterNodes || !is_power_of_two(n)) {
        return {ErrorCode::kInvalidArgument,
                "dual-ring node count must be a power of two in [4, 16] "
                "(two rings of >= 2)"};
      }
      return Status::ok();
    case Kind::kTorus:
      break;
  }
  for (std::uint32_t d = 0; d < dims_; ++d) {
    if (extents_[d] < 2) {
      return {ErrorCode::kInvalidArgument,
              "torus dimension " + std::string(kDimNames[d]) + " (extent " +
                  std::to_string(extents_[d]) +
                  ") must be >= 2 — each dimension is a ring"};
    }
  }
  if (!is_power_of_two(n)) {
    return {ErrorCode::kInvalidArgument,
            "torus node count " + std::to_string(n) +
                " must be a power of two (slices decode by masked compare)"};
  }
  if (n > calib::kMaxFabricNodes) {
    return {ErrorCode::kInvalidArgument,
            "torus node count " + std::to_string(n) + " exceeds the fabric "
            "limit of " + std::to_string(calib::kMaxFabricNodes)};
  }
  if (route_entries_per_node() > peach2::RoutingTable::kCapacity) {
    // Name the widest dimension — that is the one to shrink.
    std::uint32_t widest = 0;
    for (std::uint32_t d = 1; d < dims_; ++d) {
      if (extents_[d] > extents_[widest]) widest = d;
    }
    return {ErrorCode::kInvalidArgument,
            "torus needs " + std::to_string(route_entries_per_node()) +
                " route entries per node, above the register-file capacity "
                "of " + std::to_string(peach2::RoutingTable::kCapacity) +
                " — dimension " + std::string(kDimNames[widest]) +
                " (extent " + std::to_string(extents_[widest]) +
                ") is the widest"};
  }
  return Status::ok();
}

std::uint32_t TopologySpec::route_entries_per_node() const {
  if (kind_ == Kind::kDualRing) return node_count() - 1;
  std::uint32_t entries = 0;
  for (std::uint32_t d = 0; d < dims_; ++d) entries += extents_[d] - 1;
  return entries;
}

std::array<std::uint32_t, TopologySpec::kMaxDims> TopologySpec::coords(
    std::uint32_t node) const {
  std::array<std::uint32_t, kMaxDims> c = {0, 0, 0};
  for (std::uint32_t d = 0; d < dims_; ++d) {
    c[d] = node % extents_[d];
    node /= extents_[d];
  }
  return c;
}

std::uint32_t TopologySpec::node_at(
    const std::array<std::uint32_t, kMaxDims>& c) const {
  std::uint32_t node = 0;
  for (std::uint32_t d = dims_; d-- > 0;) {
    node = node * extents_[d] + c[d];
  }
  return node;
}

std::uint32_t TopologySpec::ring_distance(std::uint32_t dim,
                                          std::uint32_t from,
                                          std::uint32_t to) const {
  const std::uint32_t e = extents_[dim];
  const std::uint32_t plus = (to + e - from) % e;
  const std::uint32_t minus = (from + e - to) % e;
  return plus < minus ? plus : minus;
}

std::uint32_t TopologySpec::hops(std::uint32_t from, std::uint32_t to) const {
  if (from == to) return 0;
  if (kind_ == Kind::kDualRing) {
    const std::uint32_t half = node_count() / 2;
    const std::uint32_t p = from % half;
    const std::uint32_t q = to % half;
    const bool same_ring = (from < half) == (to < half);
    const std::uint32_t plus = (q + half - p) % half;
    const std::uint32_t minus = (p + half - q) % half;
    const std::uint32_t ride = plus < minus ? plus : minus;
    // Cross rings at the destination's pairing position: ride + one S hop.
    return same_ring ? ride : ride + 1;
  }
  std::uint32_t total = 0;
  const auto cf = coords(from);
  const auto ct = coords(to);
  for (std::uint32_t d = 0; d < dims_; ++d) {
    total += ring_distance(d, cf[d], ct[d]);
  }
  return total;
}

std::vector<std::uint32_t> TopologySpec::ring_order() const {
  const std::uint32_t n = node_count();
  std::vector<std::uint32_t> order(n);
  if (kind_ != Kind::kTorus || dims_ == 1) {
    for (std::uint32_t p = 0; p < n; ++p) order[p] = p;
    return order;
  }
  // Reflected mixed-radix walk (boustrophedon): digit d of the position
  // index maps to coordinate d, mirrored whenever the sum of the more
  // significant *reflected* coordinates is odd (accumulated MSB-first —
  // mirroring on the raw digits breaks at carries that ripple through
  // more than one dimension). Consecutive positions then differ by one
  // coordinate step, so every logical-ring hop rides a single cable.
  for (std::uint32_t p = 0; p < n; ++p) {
    std::array<std::uint32_t, kMaxDims> digits = {0, 0, 0};
    std::uint32_t rem = p;
    for (std::uint32_t d = 0; d < dims_; ++d) {
      digits[d] = rem % extents_[d];
      rem /= extents_[d];
    }
    std::array<std::uint32_t, kMaxDims> c = {0, 0, 0};
    std::uint32_t parity = 0;
    for (std::uint32_t d = dims_; d-- > 0;) {
      c[d] = (parity % 2 == 0) ? digits[d] : extents_[d] - 1 - digits[d];
      parity += c[d];
    }
    order[p] = node_at(c);
  }
  return order;
}

std::string TopologySpec::to_string() const {
  switch (kind_) {
    case Kind::kRing: return "ring";
    case Kind::kDualRing: return "dual-ring";
    case Kind::kTorus: break;
  }
  std::string out = "torus:";
  for (std::uint32_t d = 0; d < dims_; ++d) {
    if (d > 0) out += 'x';
    out += std::to_string(extents_[d]);
  }
  return out;
}

Result<TopologySpec> TopologySpec::parse(std::string_view text) {
  if (text == "ring") return ring(0);  // node count supplied separately
  if (text == "dual-ring") return dual_ring(0);
  constexpr std::string_view kPrefix = "torus:";
  if (text.substr(0, kPrefix.size()) != kPrefix) {
    return Status{ErrorCode::kInvalidArgument,
                  "unknown topology '" + std::string(text) +
                      "' (ring | dual-ring | torus:XxY[xZ])"};
  }
  std::string_view rest = text.substr(kPrefix.size());
  std::vector<std::uint32_t> extents;
  while (!rest.empty()) {
    std::uint32_t value = 0;
    const auto [ptr, ec] =
        std::from_chars(rest.data(), rest.data() + rest.size(), value);
    if (ec != std::errc{} || ptr == rest.data()) {
      return Status{ErrorCode::kInvalidArgument,
                    "bad torus extent in '" + std::string(text) + "'"};
    }
    extents.push_back(value);
    rest.remove_prefix(static_cast<std::size_t>(ptr - rest.data()));
    if (rest.empty()) break;
    if (rest.front() != 'x') {
      return Status{ErrorCode::kInvalidArgument,
                    "torus extents must be separated by 'x' in '" +
                        std::string(text) + "'"};
    }
    rest.remove_prefix(1);
    if (rest.empty()) {
      return Status{ErrorCode::kInvalidArgument,
                    "trailing 'x' in '" + std::string(text) + "'"};
    }
  }
  if (extents.empty() || extents.size() > kMaxDims) {
    return Status{ErrorCode::kInvalidArgument,
                  "torus takes 1 to 3 extents (torus:XxY[xZ])"};
  }
  return torus(extents);
}

}  // namespace tca::fabric
