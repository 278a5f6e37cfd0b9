// Synchronization primitives for simulated processes.
//
// All primitives resume waiters *through the event queue* at the current
// virtual time rather than inline, so a notifier never runs arbitrary
// coroutine code re-entrantly and wake order is deterministic (FIFO).
// Waiting and waking allocate nothing once a primitive's waiter storage
// has grown to its peak number of waiters.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstddef>
#include <vector>

#include "acic/common/error.hpp"
#include "acic/simcore/simulator.hpp"

namespace acic::sim {

namespace detail {

/// FIFO of suspended processes in a ring buffer.  Its storage grows to
/// the peak number of waiters and is reused from then on, however many
/// processes pass through: a server's op queue may never drain.
class WaiterQueue {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push(std::coroutine_handle<> h) {
    if (size_ == ring_.size()) grow();
    ring_[(head_ + size_) & (ring_.size() - 1)] = h;
    ++size_;
  }

  /// The oldest waiter, removed.
  std::coroutine_handle<> pop() {
    ACIC_DCHECK(size_ > 0, "pop from an empty waiter queue");
    const std::coroutine_handle<> h = ring_[head_];
    head_ = (head_ + 1) & (ring_.size() - 1);
    --size_;
    return h;
  }

 private:
  /// Double the ring (a power of two, so indices wrap with a mask),
  /// unrolling the waiters to its front in FIFO order.
  void grow() {
    std::vector<std::coroutine_handle<>> bigger(
        std::max<std::size_t>(8, 2 * ring_.size()));
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = ring_[(head_ + i) & (ring_.size() - 1)];
    }
    ring_.swap(bigger);
    head_ = 0;
  }

  std::vector<std::coroutine_handle<>> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// Resume `h` through the event queue at the current virtual time.
inline void wake(Simulator& sim, std::coroutine_handle<> h) {
  sim.at(sim.now(), [h] { h.resume(); });
}

}  // namespace detail

/// One-shot or repeated wait-for-notification point.
///
/// `co_await cond.wait()` suspends until some other process calls
/// `notify_all()` (wakes everyone) or `notify_one()` (wakes the oldest
/// waiter).
class Condition {
 public:
  explicit Condition(Simulator& sim) : sim_(sim) {}

  auto wait() {
    struct Awaiter {
      Condition& cond;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { cond.waiters_.push(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  void notify_all() {
    while (!waiters_.empty()) detail::wake(sim_, waiters_.pop());
  }

  void notify_one() {
    if (!waiters_.empty()) detail::wake(sim_, waiters_.pop());
  }

  std::size_t waiter_count() const { return waiters_.size(); }

 private:
  Simulator& sim_;
  detail::WaiterQueue waiters_;
};

/// Classic counting semaphore; models exclusive device/server slots.
class Semaphore {
 public:
  Semaphore(Simulator& sim, std::size_t permits)
      : sim_(sim), permits_(permits) {}

  auto acquire() {
    struct Awaiter {
      Semaphore& sem;
      bool await_ready() const noexcept {
        if (sem.permits_ > 0) {
          --sem.permits_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) { sem.waiters_.push(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  void release() {
    if (!waiters_.empty()) {
      // Hand the permit straight to the oldest waiter.
      detail::wake(sim_, waiters_.pop());
    } else {
      ++permits_;
    }
  }

  std::size_t available() const { return permits_; }

 private:
  Simulator& sim_;
  std::size_t permits_;
  detail::WaiterQueue waiters_;
};

/// Reusable barrier over `parties` simulated processes (MPI_Barrier-like).
class Barrier {
 public:
  Barrier(Simulator& sim, std::size_t parties)
      : sim_(sim), parties_(parties) {
    ACIC_CHECK(parties_ > 0);
  }

  auto arrive_and_wait() {
    struct Awaiter {
      Barrier& bar;
      bool await_ready() const noexcept { return false; }
      bool await_suspend(std::coroutine_handle<> h) {
        ++bar.arrived_;
        ACIC_DCHECK(bar.arrived_ <= bar.parties_,
                    "barrier overrun: " << bar.arrived_ << " arrivals for "
                                        << bar.parties_ << " parties");
        if (bar.arrived_ == bar.parties_) {
          // The last arriver releases everyone and proceeds immediately.
          bar.release_all();
          return false;
        }
        bar.waiters_.push_back(h);
        return true;
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  void release_all() {
    arrived_ = 0;
    // Waking only schedules events, so the list is not touched while it
    // is walked; clearing it keeps its storage for the next phase.
    for (auto h : waiters_) detail::wake(sim_, h);
    waiters_.clear();
  }

  Simulator& sim_;
  std::size_t parties_;
  std::size_t arrived_ = 0;
  std::vector<std::coroutine_handle<>> waiters_;
};

}  // namespace acic::sim
