// Fork/join for coroutine processes: a parent starts several child Tasks
// on a `Join` kept in its own frame and resumes when every one has
// finished.
//
// The join owns its children's frames through an intrusive list in their
// promises, so a fan-out allocates nothing beyond the children's (pooled)
// frames, and the children never enter the Simulator's process table.  A
// child counts the join down at its final suspend; the last one wakes the
// parent through one event at the current time, so the parent never runs
// inside a child.  When the parent resumes, the join destroys the
// children's frames and rethrows the first-started child's exception, if
// any, in the parent; from there it propagates like any other and, if
// nothing catches it, surfaces from Simulator::run().  A parent frame
// destroyed mid-join (a simulation torn down early) destroys its
// unfinished children with it.
//
//   sim::Join chunks(sim);
//   for (...) chunks.start(server_chunk(...));
//   co_await chunks;
#pragma once

#include <coroutine>
#include <cstddef>

#include "acic/simcore/simulator.hpp"
#include "acic/simcore/task.hpp"

namespace acic::sim {

class Join {
 public:
  explicit Join(Simulator& sim) : sim_(sim) {}
  Join(const Join&) = delete;
  Join& operator=(const Join&) = delete;
  ~Join() { destroy_children(); }

  /// Start `child` at once: it runs until it first suspends (or
  /// finishes) before start() returns.  The join owns its frame from
  /// here on.
  void start(Task child);

  /// `co_await join` suspends until every started child has finished,
  /// then destroys their frames and rethrows a child's exception, if
  /// any.  With every child already finished it does not suspend.
  auto operator co_await() noexcept {
    struct Awaiter {
      Join& join;
      bool await_ready() const noexcept { return join.running_ == 0; }
      void await_suspend(std::coroutine_handle<> parent) noexcept {
        join.parent_ = parent;
      }
      void await_resume() const { join.reap(); }
    };
    return Awaiter{*this};
  }

 private:
  friend void detail::child_finished(Join& join) noexcept;

  /// Destroy every child's frame and rethrow the exception of the
  /// first-started child that failed.
  void reap();
  void destroy_children() noexcept;

  Simulator& sim_;
  std::size_t running_ = 0;
  std::coroutine_handle<> parent_;  ///< set once the parent suspends
  Task::promise_type* children_ = nullptr;  ///< newest first
};

}  // namespace acic::sim
