#include "acic/simcore/flow.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

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
// Shares within this relative slack of the bottleneck freeze in the same
// filling round.
constexpr double kBottleneckSlack = 1.0 + 1e-12;
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

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
  // Flow paths store resource ids as 32-bit indices.
  ACIC_DCHECK(resources_.size() < std::numeric_limits<std::uint32_t>::max(),
              "too many flow resources");
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
  ACIC_EXPECTS(path.size() <= kMaxPathHops,
               "flow path of " << path.size() << " hops exceeds the "
                               << kMaxPathHops << "-hop limit");
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
  Flow f;
  f.id = id;
  f.remaining = bytes;
  f.hops = static_cast<std::uint32_t>(path.size());
  for (std::size_t h = 0; h < kMaxPathHops; ++h) {
    f.path[h] = static_cast<std::uint32_t>(path[std::min(h, path.size() - 1)]);
  }
  if (on_complete) {
    if (free_callbacks_.empty()) {
      f.callback = static_cast<std::uint32_t>(callbacks_.size());
      callbacks_.emplace_back();
    } else {
      f.callback = free_callbacks_.back();
      free_callbacks_.pop_back();
    }
    callbacks_[f.callback] = std::move(on_complete);
  }
  admit(f);
  flows_.push_back(f);
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
  const std::size_t i = find_flow(id);
  // Already completed (or never admitted, e.g. a zero-byte flow): no-op.
  if (i == flows_.size()) return;
  advance();
  const Flow f = flows_[i];
  bytes_cancelled_ += f.remaining;
  retire(f);
  if (f.callback != kNoCallback) {
    callbacks_[f.callback] = nullptr;
    free_callbacks_.push_back(f.callback);
  }
  flows_.erase(flows_.begin() + static_cast<std::ptrdiff_t>(i));
  recompute_rates();
  schedule_next_completion();
}

double FlowNetwork::flow_rate(FlowId id) const {
  const std::size_t i = find_flow(id);
  return i < flows_.size() ? flows_[i].rate : 0.0;
}

std::size_t FlowNetwork::find_flow(FlowId id) const {
  const auto it = std::lower_bound(
      flows_.begin(), flows_.end(), id,
      [](const Flow& f, FlowId key) { return f.id < key; });
  if (it == flows_.end() || it->id != id) return flows_.size();
  return static_cast<std::size_t>(it - flows_.begin());
}

void FlowNetwork::admit(const Flow& f) {
  for (std::uint32_t h = 0; h < f.hops; ++h) {
    Resource& res = resources_[f.path[h]];
    if (res.crossing++ == 0) {
      res.in_use_pos = static_cast<std::uint32_t>(in_use_.size());
      in_use_.push_back(f.path[h]);
    }
  }
}

void FlowNetwork::retire(const Flow& f) {
  for (std::uint32_t h = 0; h < f.hops; ++h) {
    Resource& res = resources_[f.path[h]];
    if (--res.crossing == 0) {
      const std::uint32_t last = in_use_.back();
      in_use_[res.in_use_pos] = last;
      resources_[last].in_use_pos = res.in_use_pos;
      in_use_.pop_back();
    }
  }
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
  next_eta_ = std::numeric_limits<SimTime>::infinity();
  const std::size_t nf = flows_.size();
  if (nf == 0) return;

  // Progressive filling: repeatedly find the bottleneck resource (the one
  // offering the smallest per-flow fair share among its unfixed flows),
  // then visit the unfixed flows in admission order, freezing every one
  // that crosses a resource whose share is within kBottleneckSlack of the
  // bottleneck and deducting its rate from every resource it traverses.
  // A flow visited later in a round sees the deductions of the flows
  // frozen before it, so the visiting order is part of the result.
  //
  // Only resources crossed by an active flow take part: seeding walks
  // in_use_, whose crossing counts admit()/retire() keep current, and a
  // share is recomputed (by the same division) only when a freeze changes
  // its residual or unfixed count.  A round costs O(resources in use +
  // kMaxPathHops x unfixed flows), nothing is O(|resources|), and a solve
  // allocates nothing.
  for (std::uint32_t r : in_use_) {
    Resource& res = resources_[r];
    res.residual = res.capacity;
    res.unfixed = res.crossing;
    res.share = res.residual / static_cast<double>(res.unfixed);
  }
  if (unfixed_.size() < nf) unfixed_.resize(nf);

  // Round one visits every flow; later rounds visit only the flows the
  // previous round left unfixed (unfixed_[0, left), in admission order).
  std::size_t left = nf;
  bool first_round = true;
  while (left > 0) {
    double best_share = std::numeric_limits<double>::infinity();
    for (std::uint32_t r : in_use_) {
      // NaN shares (no unfixed flow left) never compare less.
      if (resources_[r].share < best_share) best_share = resources_[r].share;
    }
    // Defensive: no resource offers a finite share.
    if (!(best_share < std::numeric_limits<double>::infinity())) break;
    best_share = std::max(best_share, 0.0);
    const double limit = best_share * kBottleneckSlack;

    // Every flow frozen this round gets rate best_share, and division by a
    // positive rate is monotone, so the round's earliest completion is
    // (its smallest remaining) / best_share — the same double as the
    // smallest per-flow remaining / rate.
    Bytes min_remaining = std::numeric_limits<Bytes>::infinity();
    std::size_t kept = 0;
    for (std::size_t k = 0; k < left; ++k) {
      const std::uint32_t i =
          first_round ? static_cast<std::uint32_t>(k) : unfixed_[k];
      Flow& f = flows_[i];
      const auto at_bottleneck = [&](std::uint32_t r) {
        return resources_[r].share <= limit;
      };
      if (!(at_bottleneck(f.path[0]) | at_bottleneck(f.path[1]) |
            at_bottleneck(f.path[2]) | at_bottleneck(f.path[3]))) {
        unfixed_[kept++] = i;
        continue;
      }
      f.rate = best_share;
      min_remaining = std::min(min_remaining, f.remaining);
      for (std::uint32_t h = 0; h < f.hops; ++h) {
        Resource& res = resources_[f.path[h]];
        res.residual = std::max(0.0, res.residual - best_share);
        --res.unfixed;
        res.share = res.unfixed > 0
                        ? res.residual / static_cast<double>(res.unfixed)
                        : kNaN;
      }
    }
    if (kept == left) break;  // defensive against FP pathologies
    if (best_share > 0.0) {
      next_eta_ = std::min(next_eta_, min_remaining / best_share);
    }
    left = kept;
    first_round = false;
  }
  // Flows the solver could not place.
  if (first_round) {
    for (auto& f : flows_) f.rate = 0.0;
  } else {
    for (std::size_t k = 0; k < left; ++k) flows_[unfixed_[k]].rate = 0.0;
  }
}

void FlowNetwork::schedule_next_completion() {
  ++generation_;
  if (flows_.empty()) return;
  const SimTime min_eta = next_eta_;
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
  // One pass integrates every flow up to now (exactly as advance() does),
  // picks out the finished ones and compacts the rest in admission order.
  const SimTime now = sim_.now();
  const SimTime dt = now - last_update_;
  last_update_ = now;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    Flow& f = flows_[i];
    if (dt > 0.0) {
      const Bytes moved = std::min(f.rate * dt, f.remaining);
      f.remaining -= moved;
      bytes_delivered_ += moved;
    }
    if (flow_done(f.remaining, f.rate)) {
      done_.push_back(f);
    } else {
      flows_[kept++] = f;
    }
  }
  flows_.resize(kept);
  // Credit each finished flow's sub-epsilon residue so bytes_delivered()
  // sums to exactly what was injected (byte conservation) — after every
  // flow's progress, in admission order, as the sum has always been
  // formed.
  for (const Flow& f : done_) {
    bytes_delivered_ += f.remaining;
    retire(f);
  }
  ACIC_DCHECK(bytes_conserved(),
              "flow byte conservation violated: injected="
                  << bytes_injected_ << " delivered=" << bytes_delivered_
                  << " cancelled=" << bytes_cancelled_);
  recompute_rates();
  ACIC_DCHECK(rates_feasible(), "max-min solve oversubscribed a resource");
  schedule_next_completion();
  // Callbacks are queued after the new completion event, in admission
  // order.
  for (const Flow& f : done_) {
    if (f.callback == kNoCallback) continue;
    sim_.at(now, std::move(callbacks_[f.callback]));
    callbacks_[f.callback] = nullptr;
    free_callbacks_.push_back(f.callback);
  }
  done_.clear();
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
    for (std::uint32_t h = 0; h < f.hops; ++h) load[f.path[h]] += f.rate;
  }
  for (std::size_t r = 0; r < resources_.size(); ++r) {
    if (load[r] > resources_[r].capacity * (1.0 + 1e-9) + 1e-9) return false;
  }
  return true;
}

}  // namespace acic::sim
