// Frame arena: pooled allocation for coroutine frames, TLPs and TLP
// payloads.
//
// Simulated processes (sim::Task coroutines) and TLPs are the event core's
// steady-state allocations: every Task spawn is a frame malloc and every
// completion a free, and each TLP and its payload a block apiece, straight
// through the global allocator. FrameArena replaces that with bump-allocated
// chunks recycled through size-class free lists, one arena per scheduler, so
// a simulation's churn of short-lived blocks touches only its own warm
// memory.
//
// Design:
//  * allocate() rounds the request up to a 64-byte size class (classes up to
//    kMaxPooledBytes; larger requests pass through to ::operator new) and
//    pops the class free list, falling back to bumping the current chunk.
//  * deallocate() pushes the block back onto its class free list — blocks
//    are never returned to the OS until the arena dies, which is exactly the
//    recycling that makes per-frame cost a pointer swap.
//  * Every block carries a one-max_align_t header recording the owning arena
//    so a block can be freed from a different context than it was allocated
//    in (a frame spawned inside an event may die at teardown, outside any
//    event).
//  * arena_alloc()/arena_free() route through the calling thread's current
//    arena (see ArenaScope), falling back to the global allocator when no
//    arena is active — allocations made outside scheduler execution (test
//    setup, main()) behave exactly as before.
//
// Thread contract: an arena is used by one thread only. A simulation
// allocates and frees its frames on the thread that runs its scheduler, so
// the free lists take no lock; independent simulations on different threads
// each have their own scheduler and therefore their own arena.
//
// Lifetime contract: blocks must be freed before their arena dies. The
// arenas live in the Scheduler (declared before the event queues, destroyed
// after them), and the repo-wide teardown order — components before
// scheduler — means frames, captures, TLPs and their payloads are gone by
// then. The arena counts the blocks it has handed out and not had back, and
// its destructor asserts the count is zero: a block still out (a TLP kept
// past its scheduler, or a detached process that never finished) would
// otherwise be freed into released chunk memory later, or leaked, without a
// report.
//
// Under AddressSanitizer the pool is disabled (pass-through to the global
// allocator) so use-after-free of frames stays detectable.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

#include "common/error.h"

#if defined(__SANITIZE_ADDRESS__)
#define TCA_ARENA_PASSTHROUGH 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TCA_ARENA_PASSTHROUGH 1
#endif
#endif
#ifndef TCA_ARENA_PASSTHROUGH
#define TCA_ARENA_PASSTHROUGH 0
#endif

namespace tca::sim {

class FrameArena {
 public:
  /// Size-class granularity and the largest pooled request. Coroutine frames
  /// in this codebase are 100-600 bytes; 4 KiB covers every frame with room
  /// for growth, and anything larger is rare enough for the global heap.
  static constexpr std::size_t kClassBytes = 64;
  static constexpr std::size_t kMaxPooledBytes = 4096;
  static constexpr std::size_t kChunkBytes = 64 * 1024;

  FrameArena() = default;
  FrameArena(const FrameArena&) = delete;
  FrameArena& operator=(const FrameArena&) = delete;

  ~FrameArena() {
    TCA_ASSERT(live_ == 0 &&
               "an arena block outlived its scheduler (see arena.h)");
    for (void* c : chunks_) ::operator delete(c);
  }

  void* allocate(std::size_t bytes) {
    ++live_;
    const std::size_t cls = (bytes + kClassBytes - 1) / kClassBytes;
    if (FreeBlock*& head = free_[cls]; head != nullptr) {
      FreeBlock* b = head;
      head = b->next;
      return b;
    }
    const std::size_t sz = cls * kClassBytes;
    if (bump_left_ < sz) {
      chunks_.push_back(::operator new(kChunkBytes));
      bump_ = static_cast<std::byte*>(chunks_.back());
      bump_left_ = kChunkBytes;
    }
    void* p = bump_;
    bump_ += sz;
    bump_left_ -= sz;
    return p;
  }

  void deallocate(void* p, std::size_t bytes) {
    --live_;
    const std::size_t cls = (bytes + kClassBytes - 1) / kClassBytes;
    auto* b = static_cast<FreeBlock*>(p);
    b->next = free_[cls];
    free_[cls] = b;
  }

  [[nodiscard]] static bool pools(std::size_t bytes) {
    return bytes <= kMaxPooledBytes;
  }

 private:
  struct FreeBlock {
    FreeBlock* next;
  };
  static constexpr std::size_t kClasses = kMaxPooledBytes / kClassBytes + 1;

  FreeBlock* free_[kClasses] = {};
  std::byte* bump_ = nullptr;
  std::size_t bump_left_ = 0;
  std::vector<void*> chunks_;
  std::size_t live_ = 0;  ///< blocks allocated and not yet deallocated
};

namespace detail {
/// The calling thread's active arena (set by ArenaScope, null outside
/// scheduler execution). thread_local so simulations running on different
/// threads never share one.
inline thread_local FrameArena* t_current_arena = nullptr;
}  // namespace detail

// tca-protocol: borrows(arena)
[[nodiscard]] inline FrameArena* current_arena() {
  return detail::t_current_arena;
}

/// RAII activation of an arena for the current thread. The scheduler wraps
/// event execution in one of these so every frame allocated inside an event
/// lands in that scheduler's pool.
class ArenaScope {
 public:
  explicit ArenaScope(FrameArena* arena) : prev_(detail::t_current_arena) {
    detail::t_current_arena = arena;
  }
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;
  ~ArenaScope() { detail::t_current_arena = prev_; }

 private:
  FrameArena* prev_;
};

/// Allocates `bytes` through the current arena (global heap when none is
/// active or the request is too large to pool). The returned block hides a
/// header recording the owner so arena_free works from any context.
inline void* arena_alloc(std::size_t bytes) {
  constexpr std::size_t kHeader = alignof(std::max_align_t);
  static_assert(kHeader >= sizeof(FrameArena*));
  const std::size_t total = bytes + kHeader;
#if TCA_ARENA_PASSTHROUGH
  FrameArena* arena = nullptr;
#else
  FrameArena* arena =
      FrameArena::pools(total) ? detail::t_current_arena : nullptr;
#endif
  void* raw = arena != nullptr ? arena->allocate(total) : ::operator new(total);
  *static_cast<FrameArena**>(raw) = arena;
  return static_cast<std::byte*>(raw) + kHeader;
}

inline void arena_free(void* p, std::size_t bytes) noexcept {
  constexpr std::size_t kHeader = alignof(std::max_align_t);
  void* raw = static_cast<std::byte*>(p) - kHeader;
  FrameArena* arena = *static_cast<FrameArena**>(raw);
  if (arena != nullptr) {
    arena->deallocate(raw, bytes + kHeader);
  } else {
    ::operator delete(raw);
  }
}

}  // namespace tca::sim
