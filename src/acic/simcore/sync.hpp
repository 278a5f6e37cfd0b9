// Synchronization primitives for simulated processes.
//
// All primitives resume waiters *through the event queue* at the current
// virtual time rather than inline, so a notifier never runs arbitrary
// coroutine code re-entrantly and wake order is deterministic (FIFO).
#pragma once

#include <coroutine>
#include <cstddef>
#include <deque>
#include <vector>

#include "acic/common/error.hpp"
#include "acic/simcore/simulator.hpp"

namespace acic::sim {

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
      void await_suspend(std::coroutine_handle<> h) {
        cond.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  void notify_all() {
    auto waiters = std::move(waiters_);
    waiters_.clear();
    for (auto h : waiters) {
      sim_.at(sim_.now(), [h] { h.resume(); });
    }
  }

  void notify_one() {
    if (waiters_.empty()) return;
    auto h = waiters_.front();
    waiters_.pop_front();
    sim_.at(sim_.now(), [h] { h.resume(); });
  }

  std::size_t waiter_count() const { return waiters_.size(); }

 private:
  Simulator& sim_;
  std::deque<std::coroutine_handle<>> waiters_;
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
      void await_suspend(std::coroutine_handle<> h) {
        sem.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  void release() {
    if (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      // Hand the permit straight to the waiter.
      sim_.at(sim_.now(), [h] { h.resume(); });
    } else {
      ++permits_;
    }
  }

  std::size_t available() const { return permits_; }

 private:
  Simulator& sim_;
  std::size_t permits_;
  std::deque<std::coroutine_handle<>> waiters_;
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
    auto waiters = std::move(waiters_);
    waiters_.clear();
    for (auto h : waiters) sim_.at(sim_.now(), [h] { h.resume(); });
  }

  Simulator& sim_;
  std::size_t parties_;
  std::size_t arrived_ = 0;
  std::vector<std::coroutine_handle<>> waiters_;
};

}  // namespace acic::sim
