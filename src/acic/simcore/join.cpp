#include "acic/simcore/join.hpp"

#include <exception>
#include <utility>

#include "acic/simcore/sync.hpp"

namespace acic::sim {

namespace detail {

void child_finished(Join& join) noexcept {
  // Only the last child wakes the parent, and only once the parent has
  // suspended on the join; no child touches the join after its count.
  if (--join.running_ == 0 && join.parent_) wake(join.sim_, join.parent_);
}

}  // namespace detail

void Join::start(Task child) {
  ACIC_EXPECTS(child.valid(), "Join::start() needs a live coroutine");
  const auto handle = std::exchange(child.handle_, {});
  Task::promise_type& promise = handle.promise();
  promise.join = this;
  promise.next_child = children_;
  children_ = &promise;
  ++running_;
  handle.resume();
}

void Join::reap() {
  ACIC_DCHECK(running_ == 0, "join resumed with " << running_
                                                  << " children running");
  std::exception_ptr failure;
  for (Task::promise_type* p = children_; p != nullptr; p = p->next_child) {
    // The list runs newest first, so the last failure seen is the
    // first-started child's.
    if (p->exception) failure = p->exception;
  }
  destroy_children();
  parent_ = {};
  if (failure) std::rethrow_exception(failure);
}

void Join::destroy_children() noexcept {
  while (children_ != nullptr) {
    Task::promise_type* p = children_;
    children_ = p->next_child;
    std::coroutine_handle<Task::promise_type>::from_promise(*p).destroy();
  }
  running_ = 0;
}

}  // namespace acic::sim
