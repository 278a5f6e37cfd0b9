// Coroutine process type for the simulation kernel.
//
// `Task` is a lazily-started coroutine.  Awaiting a Task runs it to
// completion and resumes the awaiter (symmetric transfer); spawning a Task
// on the Simulator turns it into a detached simulated process whose frame
// the simulator keeps alive; starting it on a `Join` (join.hpp) makes it a
// child whose frame the join owns.  Exceptions propagate to the awaiter,
// to the joining parent, or — for spawned root tasks — out of
// Simulator::run().
//
// Frames come from a per-thread pool: free frames are kept on one list
// per 16-byte size class up to 512 bytes and reused by the next frame of
// that class (task.cpp), so a warm simulation allocates no frames.
// Larger frames go to the global allocator.  A thread's pool keeps its
// frames until the thread exits; a frame freed after that (a static
// destructor's) goes back to the global allocator.  Under
// AddressSanitizer the pool is compiled out, so every frame is a global
// allocation and ASan's quarantine still catches a frame used after it
// was freed.
//
// TOOLCHAIN CONSTRAINT: every awaiter type used with these coroutines must
// be TRIVIALLY DESTRUCTIBLE (hold references or raw pointers, never
// shared_ptr/vector/etc.).  GCC 12.2 destroys the awaiter temporary of a
// co_await expression twice in some resume orders (fixed in later GCCs);
// with trivially destructible awaiters the double-destroy is harmless.
// tests/simcore_test.cpp carries a regression test for this.
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <utility>

#include "acic/common/check.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define ACIC_SIM_FRAME_POOL 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ACIC_SIM_FRAME_POOL 0
#endif
#endif
#ifndef ACIC_SIM_FRAME_POOL
#define ACIC_SIM_FRAME_POOL 1
#endif

namespace acic::sim {

class Join;

/// Whether Task frames come from the per-thread pool (false under
/// AddressSanitizer).
inline constexpr bool kFramePool = ACIC_SIM_FRAME_POOL != 0;

namespace detail {

#if ACIC_SIM_FRAME_POOL
/// The pool's allocation and release of one frame (task.cpp).
void* allocate_frame(std::size_t bytes);
void free_frame(void* frame, std::size_t bytes) noexcept;
#endif

/// Count a finished child of `join` down (join.cpp).
void child_finished(Join& join) noexcept;

}  // namespace detail

class [[nodiscard]] Task {
 public:
  struct promise_type {
    std::coroutine_handle<> continuation;
    std::exception_ptr exception;
    /// The join that owns this frame, and the next child it owns; set
    /// only for a frame started with Join::start().
    Join* join = nullptr;
    promise_type* next_child = nullptr;
    bool finished = false;

#if ACIC_SIM_FRAME_POOL
    static void* operator new(std::size_t bytes) {
      return detail::allocate_frame(bytes);
    }
    static void operator delete(void* frame, std::size_t bytes) noexcept {
      detail::free_frame(frame, bytes);
    }
#endif

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    /// Hands control to the awaiting parent, or counts a join's child
    /// down; a spawned or joined frame stays suspended here until its
    /// owner destroys it.
    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<promise_type> h) noexcept {
        promise_type& p = h.promise();
        p.finished = true;
        if (p.continuation) return p.continuation;
        if (p.join) detail::child_finished(*p.join);
        return std::noop_coroutine();
      }
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() noexcept {}
    void unhandled_exception() { exception = std::current_exception(); }
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
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

  bool valid() const { return static_cast<bool>(handle_); }
  bool done() const { return handle_ && handle_.promise().finished; }

  /// Start the coroutine without an awaiting parent (used by spawn()).
  void start_detached() {
    ACIC_EXPECTS(handle_, "start_detached() on an empty Task");
    ACIC_CHECK(!handle_.promise().finished,
               "resume of a finished coroutine frame");
    handle_.resume();
  }

  /// Rethrow an exception that escaped the coroutine body, if any.
  void rethrow_if_failed() const {
    if (handle_ && handle_.promise().exception) {
      std::rethrow_exception(handle_.promise().exception);
    }
  }

  /// co_await support: start the child, resume the parent at completion.
  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> child;
      bool await_ready() const noexcept {
        return !child || child.promise().finished;
      }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> parent) noexcept {
        // A child with a continuation already set is being awaited twice;
        // resuming two parents from one final-suspend would be UB.
        ACIC_DCHECK(!child.promise().continuation,
                    "Task awaited by two parents");
        child.promise().continuation = parent;
        return child;  // symmetric transfer into the child
      }
      void await_resume() const {
        if (child && child.promise().exception) {
          std::rethrow_exception(child.promise().exception);
        }
      }
    };
    return Awaiter{handle_};
  }

 private:
  friend class Join;

  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

}  // namespace acic::sim
