#include "peach2/routing.h"

namespace tca::peach2 {

Status RoutingTable::add(const RouteEntry& entry) {
  if (entries_.size() >= kCapacity) {
    return {ErrorCode::kResourceExhausted, "routing table full"};
  }
  if (entry.lower > entry.upper) {
    return {ErrorCode::kInvalidArgument, "lower bound above upper bound"};
  }
  entries_.push_back(entry);
  return Status::ok();
}

std::optional<PortId> RoutingTable::lookup(std::uint64_t addr) const {
  for (const RouteEntry& e : entries_) {
    if (e.matches(addr)) return e.port;
  }
  return std::nullopt;
}

RouteEntry& RoutingTable::entry_mut(std::size_t i) {
  TCA_ASSERT(i < kCapacity);
  if (i >= entries_.size()) entries_.resize(i + 1);
  return entries_[i];
}

}  // namespace tca::peach2
