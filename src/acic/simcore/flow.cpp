#include "acic/simcore/flow.hpp"

#include <algorithm>
#include <cmath>

#include "acic/common/error.hpp"

namespace acic::sim {

namespace {
// Flows with less than this many bytes left are considered complete; it
// absorbs floating-point residue from rate integration.
constexpr Bytes kEpsilonBytes = 1e-3;
// Completion tolerance in *time*: a flow that would finish within a
// nanosecond is finished now.  This guards against the zero-progress spin
// where the next completion lies below one ulp of the current (large)
// timestamp, so the clock cannot actually advance to it.
constexpr SimTime kTimeQuantum = 1e-9;

bool flow_done(Bytes remaining, double rate) {
  if (remaining <= kEpsilonBytes) return true;
  return rate > 0.0 && remaining <= rate * kTimeQuantum;
}

bool path_is_duplicate_free(const std::vector<ResourceId>& path) {
  for (std::size_t i = 0; i < path.size(); ++i) {
    for (std::size_t j = i + 1; j < path.size(); ++j) {
      if (path[i] == path[j]) return false;
    }
  }
  return true;
}
}  // namespace

ResourceId FlowNetwork::add_resource(std::string name, double capacity) {
  ACIC_EXPECTS(capacity >= 0.0, "negative capacity " << capacity << " for "
                                                     << name);
  resources_.push_back(Resource{std::move(name), capacity});
  return resources_.size() - 1;
}

void FlowNetwork::set_capacity(ResourceId id, double capacity) {
  ACIC_EXPECTS(id < resources_.size(), "unknown resource " << id);
  ACIC_EXPECTS(capacity >= 0.0, "negative capacity " << capacity << " for "
                                                     << resources_[id].name);
  advance();
  resources_[id].capacity = capacity;
  recompute_rates();
  schedule_next_completion();
}

double FlowNetwork::capacity(ResourceId id) const {
  ACIC_EXPECTS(id < resources_.size(), "unknown resource " << id);
  return resources_[id].capacity;
}

FlowId FlowNetwork::start_flow(std::vector<ResourceId> path, Bytes bytes,
                               std::function<void()> on_complete) {
  ACIC_EXPECTS(!path.empty(), "flow path must name at least one resource");
  for (ResourceId r : path) {
    ACIC_EXPECTS(r < resources_.size(), "unknown resource " << r
                                                            << " in flow path");
  }
  // Duplicate resources in one path would double-count the flow against
  // that resource in the max-min solve (documented contract; O(p^2) over
  // paths of length <= 4, so debug tier only).
  ACIC_DCHECK(path_is_duplicate_free(path),
              "flow path crosses the same resource twice");
  ACIC_EXPECTS(bytes >= 0.0, "negative flow size " << bytes);

  const FlowId id = next_flow_id_++;
  bytes_injected_ += bytes;
  if (bytes <= kEpsilonBytes) {
    bytes_delivered_ += bytes;
    if (on_complete) sim_.at(sim_.now(), std::move(on_complete));
    return id;
  }
  advance();
  flows_.push_back(
      Flow{id, std::move(path), bytes, 0.0, std::move(on_complete)});
  recompute_rates();
  schedule_next_completion();
  return id;
}

Task FlowNetwork::transfer(std::vector<ResourceId> path, Bytes bytes) {
  struct WaitState {
    bool done = false;
    std::coroutine_handle<> waiter;
  };
  auto state = std::make_shared<WaitState>();
  start_flow(std::move(path), bytes, [state] {
    state->done = true;
    if (state->waiter) state->waiter.resume();
  });
  // NOTE: the awaiter holds a raw pointer, not the shared_ptr — awaiter
  // temporaries must stay trivially destructible (see task.hpp).  The
  // `state` local keeps the WaitState alive across the suspension.
  struct Awaiter {
    WaitState* state;
    bool await_ready() const noexcept { return state->done; }
    void await_suspend(std::coroutine_handle<> h) { state->waiter = h; }
    void await_resume() const noexcept {}
  };
  co_await Awaiter{state.get()};
}

Task FlowNetwork::transfer_within(std::vector<ResourceId> path, Bytes bytes,
                                  SimTime timeout, bool* completed) {
  ACIC_EXPECTS(timeout > 0.0, "non-positive transfer timeout " << timeout);
  ACIC_EXPECTS(completed != nullptr,
               "transfer_within needs a completion out-param");
  // Completion and timeout race on the event queue; whichever fires first
  // settles the state, disarms the other, and resumes the waiter exactly
  // once.  Both callbacks capture the shared_ptr by value, so the state
  // outlives the coroutine frame even if the loser fires after the frame
  // is gone (e.g. completion event and timer landing on one timestamp:
  // the completion sweep has already queued on_complete as a separate
  // event when the timer fires first).
  struct TimedState {
    bool settled = false;
    bool flow_done = false;
    EventId timer = 0;
    std::coroutine_handle<> waiter;
  };
  auto state = std::make_shared<TimedState>();
  const FlowId flow = start_flow(std::move(path), bytes, [this, state] {
    if (state->settled) return;  // the timeout won this timestamp's race
    state->settled = true;
    state->flow_done = true;
    if (state->timer != 0) sim_.cancel(state->timer);
    if (state->waiter) state->waiter.resume();
  });
  // Safe to arm after start_flow: callbacks only fire once control
  // returns to the event loop, so `state->timer` is always set by then.
  state->timer = sim_.in(timeout, [this, state, flow] {
    if (state->settled) return;  // the flow completed first
    state->settled = true;
    cancel_flow(flow);
    if (state->waiter) state->waiter.resume();
  });
  // Raw pointer for the awaiter (trivially destructible, see task.hpp);
  // the `state` local keeps the TimedState alive across the suspension.
  struct Awaiter {
    TimedState* state;
    bool await_ready() const noexcept { return state->settled; }
    void await_suspend(std::coroutine_handle<> h) { state->waiter = h; }
    void await_resume() const noexcept {}
  };
  co_await Awaiter{state.get()};
  *completed = state->flow_done;
}

void FlowNetwork::cancel_flow(FlowId id) {
  for (auto it = flows_.begin(); it != flows_.end(); ++it) {
    if (it->id != id) continue;
    advance();
    bytes_cancelled_ += it->remaining;
    flows_.erase(it);
    recompute_rates();
    schedule_next_completion();
    return;
  }
  // Already completed (or never admitted, e.g. a zero-byte flow): no-op.
}

double FlowNetwork::flow_rate(FlowId id) const {
  for (const auto& f : flows_) {
    if (f.id == id) return f.rate;
  }
  return 0.0;
}

void FlowNetwork::advance() {
  const SimTime now = sim_.now();
  const SimTime dt = now - last_update_;
  if (dt > 0.0) {
    for (auto& f : flows_) {
      const Bytes moved = std::min(f.rate * dt, f.remaining);
      f.remaining -= moved;
      bytes_delivered_ += moved;
    }
  }
  last_update_ = now;
}

void FlowNetwork::recompute_rates() {
  const std::size_t nf = flows_.size();
  if (nf == 0) return;

  // Progressive filling: repeatedly find the bottleneck resource (the one
  // offering the smallest per-flow fair share among its unfixed flows),
  // freeze the rates of every unfixed flow crossing it, and deduct that
  // bandwidth from every resource those flows traverse.  Only resources
  // actually crossed by an active flow participate — the solver is
  // O(rounds x (used resources + total path length)), not O(|resources|).
  std::vector<double> residual(resources_.size());
  std::vector<std::size_t> unfixed_count(resources_.size(), 0);
  std::vector<ResourceId> used;
  used.reserve(4 * nf);
  for (std::size_t i = 0; i < nf; ++i) {
    flows_[i].rate = -1.0;  // marks "not yet fixed by this solve"
    for (ResourceId r : flows_[i].path) {
      if (unfixed_count[r] == 0) {
        residual[r] = resources_[r].capacity;
        used.push_back(r);
      }
      ++unfixed_count[r];
    }
  }

  std::size_t fixed_total = 0;
  while (fixed_total < nf) {
    // Find bottleneck share among used resources.
    double best_share = std::numeric_limits<double>::infinity();
    bool found = false;
    for (ResourceId r : used) {
      if (unfixed_count[r] == 0) continue;
      const double share = residual[r] / static_cast<double>(unfixed_count[r]);
      if (share < best_share) {
        best_share = share;
        found = true;
      }
    }
    if (!found) break;  // defensive: every flow crosses no counted resource
    best_share = std::max(best_share, 0.0);

    // Freeze every unfixed flow that crosses a bottleneck resource.
    bool froze_any = false;
    for (std::size_t i = 0; i < nf; ++i) {
      if (flows_[i].rate >= 0.0) continue;  // already fixed this solve
      bool at_bottleneck = false;
      for (ResourceId r : flows_[i].path) {
        if (unfixed_count[r] == 0) continue;
        const double share =
            residual[r] / static_cast<double>(unfixed_count[r]);
        if (share <= best_share * (1.0 + 1e-12)) {
          at_bottleneck = true;
          break;
        }
      }
      if (!at_bottleneck) continue;
      froze_any = true;
      ++fixed_total;
      flows_[i].rate = best_share;
      for (ResourceId r : flows_[i].path) {
        residual[r] = std::max(0.0, residual[r] - best_share);
        --unfixed_count[r];
      }
    }
    if (!froze_any) break;  // defensive against FP pathologies
  }
  for (auto& f : flows_) {
    if (f.rate < 0.0) f.rate = 0.0;  // flows the solver could not place
  }
}

void FlowNetwork::schedule_next_completion() {
  ++generation_;
  if (flows_.empty()) return;
  SimTime min_eta = std::numeric_limits<SimTime>::infinity();
  for (const auto& f : flows_) {
    if (f.rate > 0.0) {
      min_eta = std::min(min_eta, f.remaining / f.rate);
    }
  }
  if (!std::isfinite(min_eta)) return;  // everything stalled (failure)
  // Always land on a representable instant strictly after `now` so the
  // clock provably advances (see kTimeQuantum).
  const SimTime now = sim_.now();
  SimTime target = now + std::max(min_eta, kTimeQuantum);
  if (target <= now) {
    target = std::nextafter(now, std::numeric_limits<SimTime>::infinity());
  }
  const std::uint64_t gen = generation_;
  sim_.at(target, [this, gen] { handle_completion_event(gen); });
}

void FlowNetwork::handle_completion_event(std::uint64_t generation) {
  if (generation != generation_) return;  // superseded by a newer solve
  advance();

  std::vector<std::function<void()>> callbacks;
  for (auto it = flows_.begin(); it != flows_.end();) {
    if (flow_done(it->remaining, it->rate)) {
      // Credit the sub-epsilon residue so bytes_delivered() sums to
      // exactly what was injected (byte conservation).
      bytes_delivered_ += it->remaining;
      if (it->on_complete) callbacks.push_back(std::move(it->on_complete));
      it = flows_.erase(it);
    } else {
      ++it;
    }
  }
  ACIC_DCHECK(bytes_conserved(),
              "flow byte conservation violated: injected="
                  << bytes_injected_ << " delivered=" << bytes_delivered_
                  << " cancelled=" << bytes_cancelled_);
  recompute_rates();
  ACIC_DCHECK(rates_feasible(), "max-min solve oversubscribed a resource");
  schedule_next_completion();
  for (auto& cb : callbacks) sim_.at(sim_.now(), std::move(cb));
}

bool FlowNetwork::bytes_conserved() const {
  Bytes in_flight = 0.0;
  for (const auto& f : flows_) in_flight += f.remaining;
  const Bytes drift =
      bytes_injected_ - (bytes_delivered_ + bytes_cancelled_ + in_flight);
  // fp noise from rate integration scales with the totals involved.
  const Bytes tolerance =
      1e-6 * std::max(1.0, bytes_injected_);
  return drift >= -tolerance && drift <= tolerance;
}

bool FlowNetwork::rates_feasible() const {
  std::vector<double> load(resources_.size(), 0.0);
  for (const auto& f : flows_) {
    if (f.rate <= 0.0) continue;
    for (ResourceId r : f.path) load[r] += f.rate;
  }
  for (std::size_t r = 0; r < resources_.size(); ++r) {
    if (load[r] > resources_[r].capacity * (1.0 + 1e-9) + 1e-9) return false;
  }
  return true;
}

}  // namespace acic::sim
