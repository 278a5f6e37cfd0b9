// Fork/join helper for coroutine processes: run several Tasks concurrently
// and resume the caller when every one has finished.
#pragma once

#include <coroutine>
#include <cstddef>
#include <utility>
#include <vector>

#include "acic/simcore/simulator.hpp"
#include "acic/simcore/sync.hpp"
#include "acic/simcore/task.hpp"

namespace acic::sim {

namespace detail {

/// One when_all() call's join count, kept in its own frame and awaited by
/// it.  Children hold a raw pointer to it, which stays valid: the joiner
/// resumes only through the event the last child schedules after its
/// decrement, and the other children never touch the state after theirs.
struct JoinState {
  Simulator& sim;
  std::size_t remaining;
  std::coroutine_handle<> joiner;  ///< set once when_all() suspends

  bool await_ready() const noexcept { return remaining == 0; }
  void await_suspend(std::coroutine_handle<> h) noexcept { joiner = h; }
  void await_resume() const noexcept {}
};

inline Task run_and_count(Task inner, JoinState* state) {
  co_await std::move(inner);
  // The last child wakes the joiner through the event queue (if it has
  // suspended yet), so the joiner never runs inside a child.
  if (--state->remaining == 0 && state->joiner) {
    wake(state->sim, state->joiner);
  }
}

}  // namespace detail

/// Launch every task concurrently on `sim` and suspend the caller until
/// all of them complete.  Exceptions escaping a child surface from
/// Simulator::run() (children are detached processes).
inline Task when_all(Simulator& sim, std::vector<Task> tasks) {
  if (tasks.empty()) co_return;
  if (tasks.size() == 1) {
    // Single child: run it inline, no join bookkeeping.
    co_await std::move(tasks.front());
    co_return;
  }
  detail::JoinState state{sim, tasks.size(), {}};
  for (auto& t : tasks) {
    sim.spawn(detail::run_and_count(std::move(t), &state));
  }
  co_await state;
}

}  // namespace acic::sim
