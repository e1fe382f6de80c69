// Byte-addressable memory with real storage.
//
// The simulator is functional: DMA and PIO move actual bytes, so tests and
// examples can verify data integrity end-to-end. Timing (commit/read
// latency) is applied by the component that owns the memory, not here.
//
// The backing store is one private anonymous mapping. The kernel supplies a
// zero page on first touch, so bytes never written read as zero and a store
// costs address space, not set-up time or resident memory, until a DMA or
// PIO lands in it. Spans stay contiguous: callers such as the driver's
// descriptor fetch take them whole. The mapping has no sanitizer redzones,
// so the bounds checks below are the only overrun guard and stay on in
// every build type.
#pragma once

#include <sys/mman.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>

#include "common/error.h"
#include "common/units.h"

namespace tca::mem {

class Dram {
 public:
  explicit Dram(std::uint64_t size_bytes)
      : data_(map(size_bytes), Unmap{size_bytes}) {}

  [[nodiscard]] std::uint64_t size() const { return data_.get_deleter().len; }

  void write(std::uint64_t offset, std::span<const std::byte> src) {
    TCA_ASSERT(fits(offset, src.size()));
    std::copy(src.begin(), src.end(), data_.get() + offset);
  }

  void read(std::uint64_t offset, std::span<std::byte> dst) const {
    TCA_ASSERT(fits(offset, dst.size()));
    std::copy_n(data_.get() + offset, dst.size(), dst.begin());
  }

  [[nodiscard]] std::span<const std::byte> view(std::uint64_t offset,
                                                std::uint64_t len) const {
    TCA_ASSERT(fits(offset, len));
    return {data_.get() + offset, len};
  }

  [[nodiscard]] std::span<std::byte> view_mut(std::uint64_t offset,
                                              std::uint64_t len) {
    TCA_ASSERT(fits(offset, len));
    return {data_.get() + offset, len};
  }

 private:
  struct Unmap {
    std::uint64_t len = 0;
    void operator()(std::byte* p) const { ::munmap(p, len); }
  };

  // No MAP_NORESERVE: the kernel's overcommit check still applies, so a
  // store the host plainly cannot back fails here, not on first touch.
  static std::byte* map(std::uint64_t len) {
    if (len == 0) return nullptr;  // mmap rejects empty mappings
    void* p = ::mmap(nullptr, len, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) {
      std::fprintf(stderr, "mem::Dram: cannot map %llu bytes: %s\n",
                   static_cast<unsigned long long>(len), std::strerror(errno));
      std::abort();
    }
    return static_cast<std::byte*>(p);
  }

  [[nodiscard]] bool fits(std::uint64_t offset, std::uint64_t len) const {
    return units::range_fits(offset, len, size());
  }

  std::unique_ptr<std::byte, Unmap> data_;
};

}  // namespace tca::mem
