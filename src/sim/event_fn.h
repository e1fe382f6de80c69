// Small-buffer-optimized callable for scheduler events.
//
// The event queue is the hottest data structure in the simulator: every TLP
// serialization, DMA descriptor step, credit release and interrupt is one
// callback through it. std::function heap-allocates any capture larger than
// its ~16-byte internal buffer, which made every LinkPort / Dmac / driver
// event a malloc+free pair. EventFn stores captures up to kInlineBytes
// in place, falling back to the heap only for oversized or over-aligned
// callables — and counts those fallbacks so tests can assert the hot paths
// stay allocation-free.
//
// Trivially-copyable inline captures (pointers + scalars — most of the
// simulator's hot events) take a fast path on top of that: moves are a plain
// fixed-size memcpy and destruction is a no-op, with no indirect call.
//
// Move-only (so move-only captures work), nothrow-movable, empty-testable.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "common/error.h"
#include "sim/arena.h"

namespace tca::sim {

class EventFn {
 public:
  /// Inline capture capacity. TLPs travel by 8-byte handle, so every hot
  /// capture fits in 24 bytes (the largest, the chip route pipeline's
  /// [this, out, gen, TlpPtr] and the commits' [this, offset, TlpPtr],
  /// each static_asserted beside it). The buffer keeps 88 bytes, the
  /// whole EventFn 96: 40- and 24-byte buffers took no heap fallback on
  /// tcabench either, but neither won more than 7 of 8 alternating pairs
  /// on any workload, and their differences are the size that moving
  /// LinkPort's fields alone makes (EXPERIMENTS.md, "TLPs by handle").
  static constexpr std::size_t kInlineBytes = 88;

  EventFn() noexcept = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                        std::is_invocable_r_v<void, D&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    construct<F>(std::forward<F>(f));
  }

  EventFn(EventFn&& other) noexcept { move_from(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  /// Destroys the current callable (if any) and constructs `f` in place —
  /// the allocation- and relocation-free way to fill a slot.
  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                        std::is_invocable_r_v<void, D&>>>
  void emplace(F&& f) {
    reset();
    construct<F>(std::forward<F>(f));
  }

  void operator()() {
    TCA_ASSERT(vt_ != nullptr);
    vt_->invoke(*this);
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return vt_ != nullptr;
  }

  /// True when the wrapped callable lives on the heap (capture too large or
  /// over-aligned for the inline buffer).
  [[nodiscard]] bool heap_allocated() const noexcept {
    return vt_ != nullptr && vt_->heap;
  }

  /// Process-wide count of heap-fallback constructions. Steady-state
  /// scheduler traffic must not advance it (asserted by tests and
  /// bench_sim_core). Atomic: simulations on different threads may take
  /// the fallback concurrently.
  static std::uint64_t heap_constructions() noexcept {
    return heap_constructions_.load(std::memory_order_relaxed);
  }

 private:
  struct VTable {
    void (*invoke)(EventFn&);
    void (*relocate)(EventFn& src, EventFn& dst) noexcept;
    void (*destroy)(EventFn&) noexcept;
    bool heap;
    /// Trivially-copyable inline callable: relocation is memcpy, destruction
    /// is a no-op — both handled inline without an indirect call.
    bool trivial;
  };

  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineBytes &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  /// Over-aligned callables can't use the arena path (arena blocks are
  /// max_align_t-aligned); they fall back to plain aligned new/delete.
  template <typename D>
  static constexpr bool arena_eligible() {
    return alignof(D) <= alignof(std::max_align_t);
  }

  template <typename F, typename D = std::decay_t<F>>
  void construct(F&& f) {
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      vt_ = &kVTable<D, true>;
    } else {
      // Oversized capture: the fallback allocation recycles through the
      // executing scheduler's FrameArena when one is active (global heap
      // otherwise — setup code, over-aligned captures).
      void* p;
      if constexpr (arena_eligible<D>()) {
        p = ::new (arena_alloc(sizeof(D))) D(std::forward<F>(f));
      } else {
        p = new D(std::forward<F>(f));
      }
      *static_cast<void**>(static_cast<void*>(storage_)) = p;
      vt_ = &kVTable<D, false>;
      heap_constructions_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  template <typename D, bool kInline>
  struct Ops {
    static D* get(EventFn& e) noexcept {
      void* p = static_cast<void*>(e.storage_);
      if constexpr (kInline) {
        return std::launder(static_cast<D*>(p));
      } else {
        return static_cast<D*>(*static_cast<void**>(p));
      }
    }
    static void invoke(EventFn& e) { (*get(e))(); }
    static void relocate(EventFn& src, EventFn& dst) noexcept {
      if constexpr (kInline) {
        ::new (static_cast<void*>(dst.storage_)) D(std::move(*get(src)));
        get(src)->~D();
      } else {
        *static_cast<void**>(static_cast<void*>(dst.storage_)) = get(src);
      }
    }
    static void destroy(EventFn& e) noexcept {
      if constexpr (kInline) {
        get(e)->~D();
      } else if constexpr (arena_eligible<D>()) {
        D* p = get(e);
        p->~D();
        arena_free(p, sizeof(D));  // routes to the owning arena via header
      } else {
        delete get(e);
      }
    }
  };

  template <typename D, bool kInline>
  static constexpr VTable kVTable = {
      &Ops<D, kInline>::invoke, &Ops<D, kInline>::relocate,
      &Ops<D, kInline>::destroy, !kInline,
      kInline && std::is_trivially_copyable_v<D>};

  void move_from(EventFn& other) noexcept {
    vt_ = other.vt_;
    if (vt_ != nullptr) {
      if (vt_->trivial) {
        // Fixed-size copy inlines to a handful of vector moves; trivially
        // copyable guarantees the bytes are the object.
        std::memcpy(storage_, other.storage_, kInlineBytes);
      } else {
        vt_->relocate(other, *this);
      }
      other.vt_ = nullptr;
    }
  }

  void reset() noexcept {
    if (vt_ != nullptr) {
      if (!vt_->trivial) vt_->destroy(*this);
      vt_ = nullptr;
    }
  }

  inline static std::atomic<std::uint64_t> heap_constructions_{0};

  alignas(std::max_align_t) std::byte storage_[kInlineBytes];
  const VTable* vt_ = nullptr;
};

}  // namespace tca::sim
