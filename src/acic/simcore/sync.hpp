// Synchronization primitives for simulated processes.
//
// All primitives resume waiters *through the event queue* rather than
// inline, so a notifier never runs arbitrary coroutine code re-entrantly
// and wake order is deterministic (FIFO).  A woken waiter resumes at the
// current virtual time, except where the wait ends in a delay of its own:
// `Semaphore::hold(service)` resumes `service` seconds after the permit is
// handed over and `Barrier::arrive_and_wait(latency)` `latency` seconds
// after the last arrival, so a wait plus the delay behind it costs one
// event, at the instant the delay would have ended.  Waiting and waking
// allocate nothing once a primitive's waiter storage has grown to its peak
// number of waiters.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstddef>
#include <vector>

#include "acic/common/error.hpp"
#include "acic/simcore/simulator.hpp"

namespace acic::sim {

namespace detail {

/// FIFO of waiters (a suspended process's handle, plus whatever it waits
/// out once woken) in a ring buffer.  Its storage grows to the peak
/// number of waiters and is reused from then on, however many processes
/// pass through: a server's op queue may never drain.
template <typename T>
class WaiterQueue {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push(const T& waiter) {
    if (size_ == ring_.size()) grow();
    ring_[(head_ + size_) & (ring_.size() - 1)] = waiter;
    ++size_;
  }

  /// The oldest waiter, removed.
  T pop() {
    ACIC_DCHECK(size_ > 0, "pop from an empty waiter queue");
    const T waiter = ring_[head_];
    head_ = (head_ + 1) & (ring_.size() - 1);
    --size_;
    return waiter;
  }

 private:
  /// Double the ring (a power of two, so indices wrap with a mask),
  /// unrolling the waiters to its front in FIFO order.
  void grow() {
    std::vector<T> bigger(std::max<std::size_t>(8, 2 * ring_.size()));
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = ring_[(head_ + i) & (ring_.size() - 1)];
    }
    ring_.swap(bigger);
    head_ = 0;
  }

  std::vector<T> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// Resume `h` through the event queue `after` seconds from now (at the
/// current virtual time by default).
inline void wake(Simulator& sim, std::coroutine_handle<> h,
                 SimTime after = 0.0) {
  sim.at(sim.now() + after, [h] { h.resume(); });
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
  detail::WaiterQueue<std::coroutine_handle<>> waiters_;
};

/// Classic counting semaphore; models exclusive device/server slots.
class Semaphore {
 public:
  Semaphore(Simulator& sim, std::size_t permits)
      : sim_(sim), permits_(permits) {}

  /// `co_await sem.hold(service)` acquires a permit, then resumes the
  /// caller `service` seconds after it got it: a server op queue's
  /// acquire plus its service delay as one event.  Uncontended, the
  /// caller resumes at now + service; queued, at its hand-over's time +
  /// service, in arrival order.  A zero service is a plain acquire().
  /// The caller still calls release() itself.
  auto hold(SimTime service) {
    ACIC_DCHECK(service >= 0.0, "negative service time " << service);
    struct Awaiter {
      Semaphore& sem;
      SimTime service;
      bool await_ready() const noexcept {
        // A free permit and nothing to wait out: proceed at once.
        if (service > 0.0 || sem.permits_ == 0) return false;
        --sem.permits_;
        return true;
      }
      void await_suspend(std::coroutine_handle<> h) {
        if (sem.permits_ == 0) {
          sem.waiters_.push({h, service});
          return;
        }
        --sem.permits_;
        detail::wake(sem.sim_, h, service);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, service};
  }

  auto acquire() { return hold(0.0); }

  void release() {
    if (!waiters_.empty()) {
      // Hand the permit straight to the oldest waiter, which resumes once
      // its service time has passed.
      const Waiter w = waiters_.pop();
      detail::wake(sim_, w.handle, w.service);
    } else {
      ++permits_;
    }
  }

  std::size_t available() const { return permits_; }

 private:
  struct Waiter {
    std::coroutine_handle<> handle;
    SimTime service = 0.0;
  };

  Simulator& sim_;
  std::size_t permits_;
  detail::WaiterQueue<Waiter> waiters_;
};

/// Reusable barrier over `parties` simulated processes (MPI_Barrier-like).
class Barrier {
 public:
  Barrier(Simulator& sim, std::size_t parties)
      : sim_(sim), parties_(parties) {
    ACIC_CHECK(parties_ > 0);
  }

  /// `co_await bar.arrive_and_wait(latency)` suspends until all parties
  /// have arrived, then resumes everyone `latency` seconds after the last
  /// arrival: the last arriver first, the others in arrival order.  With
  /// no latency the last arriver proceeds without suspending and the
  /// others resume at the current time.
  auto arrive_and_wait(SimTime latency = 0.0) {
    ACIC_DCHECK(latency >= 0.0, "negative barrier latency " << latency);
    struct Awaiter {
      Barrier& bar;
      SimTime latency;
      bool await_ready() const noexcept { return false; }
      bool await_suspend(std::coroutine_handle<> h) {
        ++bar.arrived_;
        ACIC_DCHECK(bar.arrived_ <= bar.parties_,
                    "barrier overrun: " << bar.arrived_ << " arrivals for "
                                        << bar.parties_ << " parties");
        if (bar.arrived_ < bar.parties_) {
          bar.waiters_.push_back(h);
          return true;
        }
        // The last arriver releases everyone, itself first.
        const bool waits = latency > 0.0;
        if (waits) detail::wake(bar.sim_, h, latency);
        bar.release_all(latency);
        return waits;
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, latency};
  }

 private:
  void release_all(SimTime latency) {
    arrived_ = 0;
    // Waking only schedules events, so the list is not touched while it
    // is walked; clearing it keeps its storage for the next phase.
    for (auto h : waiters_) detail::wake(sim_, h, latency);
    waiters_.clear();
  }

  Simulator& sim_;
  std::size_t parties_;
  std::size_t arrived_ = 0;
  std::vector<std::coroutine_handle<>> waiters_;
};

}  // namespace acic::sim
