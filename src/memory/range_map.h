// Address-range to value mapping with overlap rejection.
//
// The root complex decodes each node's PCIe address map with it.
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "common/error.h"

namespace tca::mem {

template <typename T>
class RangeMap {
 public:
  struct Range {
    std::uint64_t base;
    std::uint64_t size;
    T value;
    [[nodiscard]] std::uint64_t end() const { return base + size; }
    [[nodiscard]] bool contains(std::uint64_t addr) const {
      return addr >= base && addr < end();
    }
  };

  /// Adds [base, base+size); fails on overlap with an existing range or on
  /// address-space wraparound.
  Status add(std::uint64_t base, std::uint64_t size, T value) {
    if (size == 0) return {ErrorCode::kInvalidArgument, "empty range"};
    if (base + size < base) {
      return {ErrorCode::kOutOfRange, "range wraps the address space"};
    }
    // The first range at or after `base` must start at or after our end;
    // the range before `base` must end at or before our base.
    auto next = ranges_.lower_bound(base);
    if (next != ranges_.end() && next->second.base < base + size) {
      return {ErrorCode::kInvalidArgument, "range overlaps an existing range"};
    }
    if (next != ranges_.begin()) {
      auto prev = std::prev(next);
      if (prev->second.end() > base) {
        return {ErrorCode::kInvalidArgument,
                "range overlaps an existing range"};
      }
    }
    ranges_.emplace(base, Range{base, size, std::move(value)});
    return Status::ok();
  }

  /// Removes the range starting exactly at `base`. Returns false if absent.
  bool remove(std::uint64_t base) { return ranges_.erase(base) > 0; }

  /// Range containing `addr`, or nullptr.
  [[nodiscard]] const Range* find(std::uint64_t addr) const {
    auto it = ranges_.upper_bound(addr);
    if (it == ranges_.begin()) return nullptr;
    --it;
    return it->second.contains(addr) ? &it->second : nullptr;
  }

  /// Like find(), but requires [addr, addr+len) to fit entirely inside the
  /// range — TLPs must not straddle device boundaries.
  [[nodiscard]] const Range* find_span(std::uint64_t addr,
                                       std::uint64_t len) const {
    const Range* r = find(addr);
    if (r == nullptr || addr + len > r->end()) return nullptr;
    return r;
  }

  [[nodiscard]] std::size_t size() const { return ranges_.size(); }
  [[nodiscard]] bool empty() const { return ranges_.empty(); }

  [[nodiscard]] auto begin() const { return ranges_.begin(); }
  [[nodiscard]] auto end() const { return ranges_.end(); }

 private:
  std::map<std::uint64_t, Range> ranges_;
};

}  // namespace tca::mem
