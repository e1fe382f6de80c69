// Coroutine tasks for describing simulated processes.
//
// Hardware engines (DMA controllers, drivers, workload generators) are most
// naturally written as sequential processes that wait for simulated time or
// for events. Task<T> is an *eagerly started* coroutine bound to a Scheduler:
// constructing one runs its body until the first suspension point, and every
// resumption is routed through the Scheduler so event ordering stays
// deterministic.
//
// Lifetime contract: a Task owns its coroutine frame. Destroying an
// unfinished Task is allowed (it tears the process down), but the Scheduler
// must not run again afterwards if the task was waiting on a Delay or
// Trigger, and must still be alive if it was parked in a PollUntil (whose
// destructor disarms its poller) — standard teardown order (components
// before scheduler, no run after teardown begins) satisfies this.
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <utility>

#include "common/error.h"
#include "sim/arena.h"
#include "sim/scheduler.h"

namespace tca::sim {

template <typename T>
class Task;

namespace detail {

struct PromiseBase {
  std::coroutine_handle<> continuation;
  bool detached = false;
  std::exception_ptr exception;

  /// Coroutine frames route through the executing scheduler's FrameArena:
  /// spawning a process inside an event reuses pooled, cache-warm memory
  /// instead of hitting the global allocator per frame (frames created
  /// outside event execution fall through to the global heap — the header
  /// written by arena_alloc routes the matching free either way).
  static void* operator new(std::size_t bytes) { return arena_alloc(bytes); }
  static void operator delete(void* p, std::size_t bytes) noexcept {
    arena_free(p, bytes);
  }

  std::suspend_never initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }

    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      PromiseBase& p = h.promise();
      std::coroutine_handle<> cont =
          p.continuation ? p.continuation : std::noop_coroutine();
      if (p.detached) {
        // Detached tasks self-destroy; they can have no awaiter.
        h.destroy();
      }
      return cont;
    }

    void await_resume() const noexcept {}
  };

  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

template <typename T>
struct Promise : PromiseBase {
  T value{};

  Task<T> get_return_object();
  void return_value(T v) { value = std::move(v); }
};

template <>
struct Promise<void> : PromiseBase {
  Task<void> get_return_object();
  void return_void() {}
};

}  // namespace detail

/// An eagerly-started simulated process. `co_await`ing a Task suspends the
/// awaiter until the task completes (immediately resuming if it already has).
template <typename T = void>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::Promise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle h) : handle_(h) {}

  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  ~Task() { destroy(); }

  /// True when the coroutine has run to completion.
  [[nodiscard]] bool done() const { return !handle_ || handle_.done(); }

  /// Releases ownership: the frame self-destroys at completion. Used for
  /// fire-and-forget processes (see spawn()).
  void detach() {
    if (!handle_) return;
    if (handle_.done()) {
      destroy();
      return;
    }
    handle_.promise().detached = true;
    handle_ = {};
  }

  /// Result access after completion (void tasks: checks for exceptions).
  T result() const {
    TCA_ASSERT(handle_ && handle_.done());
    if (handle_.promise().exception) {
      std::rethrow_exception(handle_.promise().exception);
    }
    if constexpr (!std::is_void_v<T>) {
      return std::move(handle_.promise().value);
    }
  }

  auto operator co_await() & = delete;  // must co_await an rvalue (ownership)

  auto operator co_await() && {
    struct Awaiter {
      Handle h;
      bool await_ready() const { return !h || h.done(); }
      void await_suspend(std::coroutine_handle<> cont) {
        TCA_ASSERT(!h.promise().continuation);
        h.promise().continuation = cont;
      }
      T await_resume() {
        if (h.promise().exception) {
          std::rethrow_exception(h.promise().exception);
        }
        if constexpr (!std::is_void_v<T>) {
          return std::move(h.promise().value);
        }
      }
    };
    return Awaiter{handle_};
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  Handle handle_;
};

namespace detail {

template <typename T>
Task<T> Promise<T>::get_return_object() {
  return Task<T>(std::coroutine_handle<Promise<T>>::from_promise(*this));
}

inline Task<void> Promise<void>::get_return_object() {
  return Task<void>(std::coroutine_handle<Promise<void>>::from_promise(*this));
}

}  // namespace detail

/// Starts a fire-and-forget process; its frame self-destroys on completion.
inline void spawn(Task<> task) { task.detach(); }

/// Awaitable that suspends the current task for `delay` of simulated time.
/// A zero delay yields through the event queue (runs after already-queued
/// same-time events), which is useful for deterministic hand-offs.
class Delay {
 public:
  Delay(Scheduler& sched, TimePs delay) : sched_(sched), delay_(delay) {
    TCA_ASSERT(delay >= 0);
  }

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    sched_.schedule_after(delay_, [h] { h.resume(); });
  }
  void await_resume() const noexcept {}

 private:
  Scheduler& sched_;
  TimePs delay_;
};

}  // namespace tca::sim
