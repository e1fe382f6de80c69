// Small-buffer callable for scheduler events.
//
// The event queue is the hottest data structure in the simulator: every TLP
// serialization, DMA descriptor step, credit release and interrupt is one
// callback through it. std::function heap-allocates any capture larger than
// its ~16-byte internal buffer, which made every LinkPort / Dmac / driver
// event a malloc+free pair. EventFn stores every callable in place, in
// kInlineBytes: a capture that does not fit (too large, over-aligned, or
// with a move that can throw) fails to compile at the site that builds it,
// so no event ever allocates.
//
// Trivially-copyable captures (pointers + scalars — most of the
// simulator's hot events) take a fast path on top of that: moves are a plain
// fixed-size memcpy and destruction is a no-op, with no indirect call.
//
// Move-only (so move-only captures work), nothrow-movable, empty-testable.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "common/error.h"

namespace tca::sim {

class EventFn {
 public:
  /// Capture capacity. TLPs travel by 8-byte handle, so every hot capture
  /// fits in 24 bytes (the largest, the chip route pipeline's
  /// [this, out, gen, TlpPtr] and the commits' [this, offset, TlpPtr]).
  /// The buffer keeps 88 bytes, the whole EventFn 96: 40- and 24-byte
  /// buffers also held every tcabench capture, but neither won more than
  /// 7 of 8 alternating pairs on any workload, and their differences are
  /// the size that moving LinkPort's fields alone makes (EXPERIMENTS.md,
  /// "TLPs by handle").
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
  /// the relocation-free way to fill a slot.
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

 private:
  struct VTable {
    void (*invoke)(EventFn&);
    void (*relocate)(EventFn& src, EventFn& dst) noexcept;
    void (*destroy)(EventFn&) noexcept;
    /// Trivially-copyable callable: relocation is memcpy, destruction is a
    /// no-op — both handled inline without an indirect call.
    bool trivial;
  };

  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineBytes &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename F, typename D = std::decay_t<F>>
  void construct(F&& f) {
    static_assert(fits_inline<D>(),
                  "EventFn capture must fit in kInlineBytes, be at most "
                  "max_align_t-aligned and be nothrow-movable");
    ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
    vt_ = &kVTable<D>;
  }

  template <typename D>
  struct Ops {
    static D* get(EventFn& e) noexcept {
      return std::launder(static_cast<D*>(static_cast<void*>(e.storage_)));
    }
    static void invoke(EventFn& e) { (*get(e))(); }
    static void relocate(EventFn& src, EventFn& dst) noexcept {
      ::new (static_cast<void*>(dst.storage_)) D(std::move(*get(src)));
      get(src)->~D();
    }
    static void destroy(EventFn& e) noexcept { get(e)->~D(); }
  };

  template <typename D>
  static constexpr VTable kVTable = {&Ops<D>::invoke, &Ops<D>::relocate,
                                     &Ops<D>::destroy,
                                     std::is_trivially_copyable_v<D>};

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

  alignas(std::max_align_t) std::byte storage_[kInlineBytes];
  const VTable* vt_ = nullptr;
};

}  // namespace tca::sim
