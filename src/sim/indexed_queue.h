// Indexed event queue: the storage engine behind sim::Scheduler.
//
// Every pending event owns one slot of a pool: its allocation-free
// sim::EventFn, its (time, seq) key, list links, and a generation counter
// with odd = pending, even = free. Every release (fire or cancel) bumps the
// generation, so a stale id — fired, cancelled, or aimed at a recycled slot
// — is refused by a single compare, in O(1).
//
// Events are ordered in one of two places:
//
//  * Calendar ring: 2^B buckets of 2^G ps each (default 4096 x 1.024 ns, a
//    ~4.2 us horizon). An event whose bucket lies within one horizon of
//    `now` joins that bucket's list, doubly linked through the slots
//    themselves and kept in (time, seq) order. Nearly all of the
//    simulator's traffic lands here: the 25-131 ns cable, link and DMA
//    steps that make up most events. (Zero-delay coroutine wakes and CPU
//    poll iterations are not queue events; the Scheduler fires them
//    itself, from its wake lane and its poller ring.)
//    That traffic also files in near-FIFO order, so the sorted insert is
//    an append at the tail, a pop unlinks the head, and a cancel unlinks in
//    place: the ring never holds a stale entry and never sifts. A cursor
//    remembers the earliest possibly-occupied bucket, and one occupancy bit
//    per bucket lets the scan skip empty stretches 64 buckets at a time.
//  * Far heap: a 4-ary hole-sift min-heap of 24-byte (time, seq, slot, gen)
//    entries. It takes everything past the horizon (completion timeouts,
//    watchdogs, fault windows) and any insert that would land more than
//    kWalk entries before its bucket's tail, which keeps a crowded bucket
//    from turning filing quadratic. Cancelled heap entries are dropped when
//    they surface, or compacted away when they outnumber live ones.
//
// The grain adapts, as in a classic calendar queue. When events crowd
// within one bucket, so that sorted inserts keep walking, the ring halves
// its grain, down to 1 ps. When its shrunken horizon keeps turning away
// events that the configured grain would hold, it returns to that grain.
// The simulator's own traffic stays at or one step below the configured
// grain; dense sub-ns clusters (many timers within a few hundred ps) are
// what make it shrink further.
//
// Which place holds an event never changes fire order: a pop takes the
// earlier of the ring's first entry and the heap front. Ring order from the
// cursor is time order, because an event enters the ring only while its
// bucket lies within one horizon of the latest `now` the queue has seen,
// and `now` never passes a live event. So each ring bucket holds the events
// of exactly one absolute bucket.
//
// The queue is clock-less: the Scheduler owns time and passes `now` in, and
// supplies the `seq` tiebreak that makes same-time events fire FIFO.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/error.h"
#include "common/units.h"
#include "sim/event_fn.h"

namespace tca::sim {

namespace detail {

/// Far-heap ordering entry. 24 bytes so sifts move no callable state; the
/// EventFn stays in its slot until fire/cancel.
struct QEntry {
  TimePs time;
  std::uint64_t seq;
  std::uint32_t slot;
  std::uint32_t gen;
};

/// (time, seq) order of anything carrying both: heap entries and slots.
template <typename A, typename B>
bool earlier(const A& a, const B& b) {
  return a.time < b.time || (a.time == b.time && a.seq < b.seq);
}

/// Hole-style 4-ary heap sifts over a vector<QEntry>: the displaced entry
/// rides in a register while holes shift, one 24-byte move per level.
inline void heap_sift_up(std::vector<QEntry>& h, std::size_t i) {
  QEntry* d = h.data();
  const QEntry e = d[i];
  while (i != 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(e, d[parent])) break;
    d[i] = d[parent];
    i = parent;
  }
  d[i] = e;
}

inline void heap_sift_down(std::vector<QEntry>& h, std::size_t i, QEntry e) {
  QEntry* d = h.data();
  const std::size_t n = h.size();
  for (;;) {
    const std::size_t first_child = 4 * i + 1;
    if (first_child >= n) break;
    std::size_t best = first_child;
    const std::size_t last_child = first_child + 4 < n ? first_child + 4 : n;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (earlier(d[c], d[best])) best = c;
    }
    if (!earlier(d[best], e)) break;
    d[i] = d[best];
    i = best;
  }
  d[i] = e;
}

inline void heap_push(std::vector<QEntry>& h, const QEntry& e) {
  h.push_back(e);
  heap_sift_up(h, h.size() - 1);
}

/// Removes h[0], refilling the hole with the last entry sifted down.
inline void heap_pop(std::vector<QEntry>& h) {
  const QEntry last = h.back();
  h.pop_back();
  if (!h.empty()) heap_sift_down(h, 0, last);
}

/// Rebuilds heap order in place after external filtering. Internal nodes of
/// a 4-ary heap are 0..(n-2)/4, so (n+2)/4 of them need sifting; n/4 would
/// skip the last one when n % 4 is 2 or 3, leaving a heap-order violation
/// that later pops would surface as time running backwards.
inline void heapify(std::vector<QEntry>& h) {
  for (std::size_t i = (h.size() + 2) / 4; i-- > 0;) {
    heap_sift_down(h, i, h[i]);
  }
}

}  // namespace detail

class IndexedQueue {
 public:
  /// Handle for one pending event: the slot index plus the (odd) generation
  /// the slot carried when the event was filed. The caller packs these into
  /// its public EventId.
  struct Ref {
    std::uint32_t index;
    std::uint32_t gen;
  };

  /// The (time, seq) position of an event in the global fire order.
  struct Key {
    TimePs time;
    std::uint64_t seq;
  };

  /// Filings per grain-adaptation window. A window whose inserts walked
  /// more than 1/16 step each on average halves the grain; one that sent
  /// more than 1/16 of its events to the heap for want of horizon restores
  /// the configured grain.
  static constexpr std::uint32_t kAdaptWindow = 4096;

  /// `gran_log2`: log2 of a ring bucket's span in ps, and the coarsest
  /// grain the ring adapts back up to. `buckets_log2`: log2 of the ring's
  /// size (>= 6: the occupancy bitmap uses whole words). Horizon =
  /// 2^(gran + buckets) ps. The defaults (1.024 ns x 4096 ~ 4.2 us) hold
  /// every delay class the simulator files except its 34-67 us timeouts,
  /// and put the dominant 16-131 ns steps dozens of buckets apart.
  explicit IndexedQueue(unsigned gran_log2 = 10, unsigned buckets_log2 = 12)
      : max_gran_log2_(gran_log2),
        mask_((std::uint64_t{1} << buckets_log2) - 1),
        gran_log2_(gran_log2),
        buckets_(std::size_t{1} << buckets_log2),
        bitmap_((std::size_t{1} << buckets_log2) / 64, 0) {
    TCA_ASSERT(buckets_log2 >= 6);
  }

  IndexedQueue(const IndexedQueue&) = delete;
  IndexedQueue& operator=(const IndexedQueue&) = delete;

  /// Files `fn` at (t, seq). `now` must be the caller's current clock
  /// (<= t); it anchors the ring's horizon. The capture is constructed
  /// directly in its slot (EventFn stores every callable inline), no
  /// allocation.
  template <typename F>
  Ref schedule(TimePs t, TimePs now, std::uint64_t seq, F&& fn) {
    const std::uint32_t index = take_slot();
    slots_[index].fn.emplace(std::forward<F>(fn));
    return file(index, t, now, seq);
  }

  /// Cancels a pending event. Returns false if it already ran, was already
  /// cancelled, or the ref is unknown. O(1): a ring event is unlinked on
  /// the spot; a heap entry goes stale and is dropped lazily (or compacted
  /// when stale entries outnumber live ones).
  bool cancel(Ref ref) {
    if (ref.index >= slots_.size()) return false;
    Slot& s = slots_[ref.index];
    // Only the one outstanding pending id carries the slot's current (odd)
    // generation; fired/cancelled ids went stale when the slot was released.
    if (s.gen != ref.gen) return false;
    s.fn = EventFn();  // free captured resources eagerly
    // Cancelling any other event leaves the cached minimum the earliest.
    if (cache_valid_ && cached_.slot == ref.index) cache_valid_ = false;
    const bool in_heap = s.in_heap;
    if (!in_heap) unlink(s);
    release_slot(ref.index);
    --live_;
    if (in_heap) {
      --heap_live_;
      if (heap_.size() > 2 * heap_live_ && heap_.size() >= kCompactMin) {
        compact_heap();
      }
    }
    return true;
  }

  /// Earliest live (time, seq), pruning stale heap heads on the way.
  /// Returns false when the queue is empty. The found position is cached
  /// so an immediately following pop_min does no second search.
  bool peek(TimePs now, Key* out) {
    observe(now);
    if (!cache_valid_ && !find_min()) return false;
    *out = Key{cached_.time, cached_.seq};
    return true;
  }

  /// Pops the earliest live event. peek() must have returned true with no
  /// schedule or cancel since that could have changed the answer. Returns
  /// its key; moves the callable out.
  Key pop_min(EventFn* fn) {
    TCA_ASSERT(cache_valid_ && live_ > 0);
    const detail::QEntry e = cached_;
    Slot& s = slots_[e.slot];
    if (s.in_heap) {
      TCA_ASSERT(heap_.front().slot == e.slot);
      detail::heap_pop(heap_);
      --heap_live_;
    } else {
      unlink(s);
    }
    *fn = std::move(s.fn);
    release_slot(e.slot);
    --live_;
    cache_valid_ = false;
    return Key{e.time, e.seq};
  }

  [[nodiscard]] std::uint64_t live() const { return live_; }
  [[nodiscard]] bool empty() const { return live_ == 0; }

  /// Where the live events are and the current grain, for tests and
  /// diagnostics.
  [[nodiscard]] std::uint64_t ring_live() const {
    return live_ - heap_live_;
  }
  [[nodiscard]] std::uint64_t heap_live() const { return heap_live_; }
  [[nodiscard]] unsigned grain_log2() const { return gran_log2_; }

 private:
  /// How many entries a sorted insert may step back past from its bucket's
  /// tail before the event spills to the far heap instead.
  static constexpr unsigned kWalk = 4;
  /// Heap size below which cancel() never bothers compacting.
  static constexpr std::size_t kCompactMin = 64;
  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// `gen` parity tracks state: odd = pending, even = free. A ring event
  /// sits in its bucket's list through `prev`/`next`; a free slot reuses
  /// `next` as the free-list link.
  struct Slot {
    TimePs time = 0;
    std::uint64_t seq = 0;
    std::uint32_t gen = 0;
    std::uint32_t next = kNil;
    std::uint32_t prev = kNil;
    bool in_heap = false;
    EventFn fn;
  };

  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  [[nodiscard]] std::uint64_t bucket_abs(TimePs t) const {
    return static_cast<std::uint64_t>(t) >> gran_log2_;
  }

  /// Raises the horizon anchor to `now`'s bucket; an older clock never
  /// lowers it.
  void observe(TimePs now) { floor_ = std::max(floor_, bucket_abs(now)); }

  std::uint32_t take_slot() {
    std::uint32_t index;
    if (free_head_ != kNil) {
      index = free_head_;
      free_head_ = slots_[index].next;
    } else {
      index = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    ++slots_[index].gen;  // even (free) -> odd (pending)
    return index;
  }

  void release_slot(std::uint32_t index) {
    Slot& s = slots_[index];
    ++s.gen;  // odd (pending) -> even (free)
    s.next = free_head_;
    free_head_ = index;
  }

  Ref file(std::uint32_t index, TimePs t, TimePs now, std::uint64_t seq) {
    observe(now);
    Slot& s = slots_[index];
    s.time = t;
    s.seq = seq;
    place(index, s);
    ++live_;
    // A new earliest event would make the cached minimum wrong.
    if (cache_valid_ && detail::earlier(s, cached_)) cache_valid_ = false;
    if (++window_ == kAdaptWindow) [[unlikely]] adapt();
    return Ref{index, s.gen};
  }

  /// Files a slot's (time, seq) in the ring, or in the far heap when it
  /// lies past the horizon or too deep in a crowded bucket.
  void place(std::uint32_t index, Slot& s) {
    // Unsigned distance: an event before the floor counts as far too.
    const std::uint64_t b = bucket_abs(s.time);
    const bool near = b - floor_ <= mask_;
    s.in_heap = !near || !link(index, s, b);
    if (s.in_heap) {
      detail::heap_push(heap_, detail::QEntry{s.time, s.seq, index, s.gen});
      ++heap_live_;
      // A miss: past the horizon, yet within the configured grain's.
      const unsigned up = max_gran_log2_ - gran_log2_;
      if (!near && (b >> up) - (floor_ >> up) <= mask_) ++misses_;
    }
  }

  /// Sorted insert into absolute bucket `b`, walking back from the tail.
  /// False (nothing linked) when more than kWalk entries sort after `s`.
  bool link(std::uint32_t index, Slot& s, std::uint64_t b) {
    const std::size_t r = static_cast<std::size_t>(b & mask_);
    Bucket& bucket = buckets_[r];
    std::uint32_t after = bucket.tail;
    unsigned steps = 0;
    for (; after != kNil && detail::earlier(s, slots_[after]); ++steps) {
      if (steps == kWalk) {
        walked_ += kWalk;
        return false;
      }
      after = slots_[after].prev;
    }
    walked_ += steps;
    s.prev = after;
    std::uint32_t& pred_next = after == kNil ? bucket.head : slots_[after].next;
    s.next = pred_next;
    pred_next = index;
    (s.next == kNil ? bucket.tail : slots_[s.next].prev) = index;
    bitmap_[r >> 6] |= std::uint64_t{1} << (r & 63);
    cursor_ = std::min(cursor_, b);
    return true;
  }

  /// Removes a ring event from its bucket's list.
  void unlink(const Slot& s) {
    const std::size_t r = static_cast<std::size_t>(bucket_abs(s.time) & mask_);
    Bucket& bucket = buckets_[r];
    (s.prev == kNil ? bucket.head : slots_[s.prev].next) = s.next;
    (s.next == kNil ? bucket.tail : slots_[s.next].prev) = s.prev;
    if (bucket.head == kNil) {
      bitmap_[r >> 6] &= ~(std::uint64_t{1} << (r & 63));
    }
  }

  /// Closes an adaptation window (see kAdaptWindow). Kept out of line so
  /// the rare path adds no code to file()'s hot one.
  [[gnu::noinline]] void adapt() {
    if (walked_ > kAdaptWindow / 16 && gran_log2_ > 0) {
      regrain(gran_log2_ - 1);
    } else if (misses_ > kAdaptWindow / 16 && gran_log2_ < max_gran_log2_) {
      regrain(max_gran_log2_);
    }
    window_ = walked_ = misses_ = 0;
  }

  /// Refiles every ring event at grain 2^g. The ring is drained in fire
  /// order into one chain, so each refile appends at its new bucket's tail
  /// (or, past a shrunken horizon, goes to the heap).
  void regrain(unsigned g) {
    std::uint32_t first = kNil;
    std::uint32_t last = kNil;
    std::uint64_t left = live_ - heap_live_;
    for (std::uint64_t b = std::max(cursor_, floor_); left > 0; ++b) {
      b = next_occupied(b);
      Bucket& bucket = buckets_[b & mask_];
      (last == kNil ? first : slots_[last].next) = bucket.head;
      for (std::uint32_t i = bucket.head; i != kNil; i = slots_[i].next) {
        --left;
      }
      last = bucket.tail;
      bucket = Bucket{};
    }
    std::fill(bitmap_.begin(), bitmap_.end(), 0);
    // A finer grain can leave the floor a bucket early: still below every
    // event, so the ring just holds one bucket less horizon.
    floor_ = g < gran_log2_ ? floor_ << (gran_log2_ - g)
                            : floor_ >> (g - gran_log2_);
    gran_log2_ = g;
    cursor_ = 0;
    for (std::uint32_t i = first; i != kNil;) {
      const std::uint32_t next = slots_[i].next;
      place(i, slots_[i]);
      i = next;
    }
    cache_valid_ = false;
  }

  /// First occupied absolute bucket at or after `from`, which must be no
  /// later than any ring event (the ring must not be empty). Scans the
  /// occupancy words in ring order; the last step revisits `from`'s word
  /// in full, whose bits below `from` lie one wrap ahead.
  [[nodiscard]] std::uint64_t next_occupied(std::uint64_t from) const {
    std::size_t w = static_cast<std::size_t>((from & mask_) >> 6);
    const unsigned bit = static_cast<unsigned>(from & 63);
    std::uint64_t base = from - bit;
    std::uint64_t bits = bitmap_[w] & (~std::uint64_t{0} << bit);
    while (bits == 0) {
      base += 64;
      w = w + 1 == bitmap_.size() ? 0 : w + 1;
      bits = bitmap_[w];
    }
    return base + static_cast<std::uint64_t>(std::countr_zero(bits));
  }

  /// Locates the earliest live event, pruning stale heap heads that block
  /// the decision, and fills the pop cache. False when nothing is live.
  bool find_min() {
    bool have = false;
    if (live_ > heap_live_) {
      cursor_ = next_occupied(std::max(cursor_, floor_));
      const std::uint32_t head = buckets_[cursor_ & mask_].head;
      const Slot& s = slots_[head];
      cached_ = detail::QEntry{s.time, s.seq, head, s.gen};
      have = true;
    }
    // The heap front — live or stale — is a lower bound on every heap
    // entry, so once the ring's minimum sorts before it nothing in the heap
    // can matter, and stale heads stay put for the bulk compaction in
    // cancel() instead of costing a sift each.
    while (!heap_.empty()) {
      const detail::QEntry& top = heap_.front();
      if (have && !detail::earlier(top, cached_)) break;
      if (slots_[top.slot].gen == top.gen) {
        cached_ = top;
        have = true;
        break;
      }
      detail::heap_pop(heap_);
    }
    cache_valid_ = have;
    return have;
  }

  /// Drops stale far-heap entries and rebuilds the heap in place. Fire order
  /// is untouched: pops follow the (time, seq) total order, not the array
  /// layout, and a cached heap minimum stays at the front.
  void compact_heap() {
    std::size_t out = 0;
    for (const detail::QEntry& e : heap_) {
      if (slots_[e.slot].gen == e.gen) heap_[out++] = e;
    }
    heap_.resize(out);
    detail::heapify(heap_);
  }

  const unsigned max_gran_log2_;
  const std::uint64_t mask_;
  unsigned gran_log2_;

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNil;
  std::uint64_t live_ = 0;

  // Calendar ring. `floor_` is the bucket of the latest `now` seen (or one
  // early, after a halving); the ring covers the 2^B buckets from it on. No
  // ring event lies before `cursor_`.
  std::vector<Bucket> buckets_;
  std::vector<std::uint64_t> bitmap_;
  std::uint64_t floor_ = 0;
  std::uint64_t cursor_ = 0;

  // Grain adaptation: filings, walk steps and horizon misses this window.
  std::uint32_t window_ = 0;
  std::uint32_t walked_ = 0;
  std::uint32_t misses_ = 0;

  // Far heap.
  std::vector<detail::QEntry> heap_;
  std::uint64_t heap_live_ = 0;

  // Pop cache filled by find_min.
  bool cache_valid_ = false;
  detail::QEntry cached_{};
};

}  // namespace tca::sim
