// Ring FIFO for the event path.
//
// Every queue a TLP, a waiting coroutine or a delivery-notification tag
// passes through on the hot path (link egress and in-flight lists, chip
// ingress/egress FIFOs, root-complex and GPU queues, semaphore waiters, the
// DMAC's ack window) is a Ring instead of a std::deque. A deque allocates a
// block map and a first block at construction and frees and reallocates
// blocks as its front walks forward, so a steady stream of TLPs through an
// otherwise empty queue keeps hitting the allocator. A Ring keeps one
// power-of-two buffer: it allocates nothing until the first push, grows by
// doubling when full (preserving order) and never shrinks, so once a queue
// has seen its peak depth it never allocates again.
//
// It keeps the subset of the deque interface the simulator uses:
// push_back / push_front (LCRC and link-down requeue at the head of the
// replay buffer), pop_front / pop_back (on_link_down pulls in-flight TLPs
// newest first), front / back, and front-to-back iteration (abandon_queued,
// abandon_egress). Elements are constructed and destroyed exactly as in a
// deque: a pop destroys its element at once, so nothing a popped TLP owns
// outlives the pop.
#pragma once

#include <cstddef>
#include <iterator>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "common/error.h"

namespace tca::sim {

template <typename T>
class Ring {
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "growth relocates elements and must not throw halfway");

 public:
  Ring() = default;
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;
  Ring(Ring&& other) noexcept
      : buf_(std::exchange(other.buf_, nullptr)),
        mask_(std::exchange(other.mask_, 0)),
        head_(std::exchange(other.head_, 0)),
        size_(std::exchange(other.size_, 0)) {}
  Ring& operator=(Ring&&) = delete;
  ~Ring() {
    clear();
    if (buf_ != nullptr) std::allocator<T>().deallocate(buf_, capacity());
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Slots allocated (0 before the first push; a power of two after).
  [[nodiscard]] std::size_t capacity() const {
    return buf_ == nullptr ? 0 : mask_ + 1;
  }

  T& front() {
    TCA_ASSERT(size_ > 0);
    return buf_[head_];
  }
  T& back() {
    TCA_ASSERT(size_ > 0);
    return at(size_ - 1);
  }
  /// The i-th element from the front.
  T& operator[](std::size_t i) { return at(i); }
  const T& operator[](std::size_t i) const { return at(i); }

  // The rvalue overloads move straight into the slot (a TLP handle is moved
  // once, not twice); the lvalue one copies first, so pushing an element of
  // this very ring survives the growth that relocates it.
  void push_back(T&& value) {
    if (size_ == capacity()) grow();
    ::new (static_cast<void*>(&at(size_))) T(std::move(value));
    ++size_;
  }
  void push_back(const T& value) { push_back(T(value)); }

  void push_front(T&& value) {
    if (size_ == capacity()) grow();
    head_ = (head_ - 1) & mask_;
    ::new (static_cast<void*>(&buf_[head_])) T(std::move(value));
    ++size_;
  }

  void pop_front() {
    TCA_ASSERT(size_ > 0);
    std::destroy_at(&buf_[head_]);
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  void pop_back() {
    TCA_ASSERT(size_ > 0);
    std::destroy_at(&at(size_ - 1));
    --size_;
  }

  /// Destroys every element; keeps the buffer.
  void clear() {
    while (size_ > 0) pop_front();
    head_ = 0;
  }

  /// Front-to-back iteration.
  template <bool kConst>
  class Iter {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = std::conditional_t<kConst, const T*, T*>;
    using reference = std::conditional_t<kConst, const T&, T&>;
    using RingPtr = std::conditional_t<kConst, const Ring*, Ring*>;

    Iter() = default;
    Iter(RingPtr ring, std::size_t i) : ring_(ring), i_(i) {}
    reference operator*() const { return (*ring_)[i_]; }
    pointer operator->() const { return &(*ring_)[i_]; }
    Iter& operator++() {
      ++i_;
      return *this;
    }
    Iter operator++(int) {
      Iter old = *this;
      ++i_;
      return old;
    }
    bool operator==(const Iter& o) const { return i_ == o.i_; }

   private:
    RingPtr ring_ = nullptr;
    std::size_t i_ = 0;
  };
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, size_); }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

 private:
  static constexpr std::size_t kFirstCapacity = 8;

  T& at(std::size_t i) { return buf_[(head_ + i) & mask_]; }
  const T& at(std::size_t i) const { return buf_[(head_ + i) & mask_]; }

  /// Doubles the buffer, moving the elements to [0, size) in order.
  void grow() {
    const std::size_t cap = capacity() == 0 ? kFirstCapacity : 2 * capacity();
    T* next = std::allocator<T>().allocate(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      ::new (static_cast<void*>(&next[i])) T(std::move(at(i)));
      std::destroy_at(&at(i));
    }
    if (buf_ != nullptr) std::allocator<T>().deallocate(buf_, capacity());
    buf_ = next;
    mask_ = cap - 1;
    head_ = 0;
  }

  T* buf_ = nullptr;
  std::size_t mask_ = 0;  ///< capacity - 1 once allocated
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace tca::sim
