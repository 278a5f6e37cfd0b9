// Differential test of the flow solver against a plain per-flow
// progressive-filling loop.  FlowNetwork solves over path groups with
// per-group virtual clocks, so its floating-point trajectory differs from
// a per-flow loop's in the last bits; these tests hold it to a stated
// tolerance instead of bit equality.  One script runs on two simulators,
// one over FlowNetwork and one over ReferenceFlowNetwork below, and:
//   * between any two instants of the reference's event stream that lie
//     more than the tolerance apart, both networks have the same active
//     flows, every rate agrees within 1e-9 relative, and the delivered
//     and cancelled byte totals agree within 1e-9 of the bytes injected;
//   * every script step ends the same way (completed or timed out) at a
//     time within 1e-9 relative of the reference's, in the same order
//     wherever the reference's times differ by more than that, and in the
//     same order among callbacks both networks fire at one instant;
//   * bytes delivered plus cancelled equal the bytes injected within 1e-9
//     of them;
//   * at every compared instant FlowNetwork's rates, with the script's
//     paths and capacities, pass the max-min optimality certificate:
//     every resource carries at most its capacity, and every flow crosses
//     a resource loaded to within 1e-9 of its capacity on which no flow
//     is faster by more than 1e-9 (relative).  That oracle follows from
//     the definition of max-min fairness, not from progressive filling.
// Event counts are not compared between the two: a completion that
// rounding moves by an ulp can take one event more or less.  One case
// pins FlowNetwork's own count.
//
// ReferenceFlowNetwork is the straightforward solver copied verbatim
// (renamed, plus rates() and path_of() test hooks).  It is the oracle
// only; nothing outside this file uses it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "acic/common/error.hpp"
#include "acic/common/rng.hpp"
#include "acic/obs/metrics.hpp"
#include "acic/simcore/flow.hpp"
#include "acic/simcore/simulator.hpp"
#include "acic/simcore/task.hpp"

namespace acic::sim {
namespace {

// --- Reference solver -------------------------------------------------------

class ReferenceFlowNetwork {
 public:
  explicit ReferenceFlowNetwork(Simulator& sim) : sim_(sim) {}
  ReferenceFlowNetwork(const ReferenceFlowNetwork&) = delete;
  ReferenceFlowNetwork& operator=(const ReferenceFlowNetwork&) = delete;

  /// Register a resource with the given capacity in bytes/second.
  ResourceId add_resource(std::string name, double capacity);

  /// Change a resource's capacity (jitter / failure injection).  Active
  /// flows are re-allocated immediately.
  void set_capacity(ResourceId id, double capacity);

  double capacity(ResourceId id) const;

  /// Begin transferring `bytes` across `path`; `on_complete` fires through
  /// the event queue when the transfer finishes.  Zero-byte transfers
  /// complete immediately.  The path must be non-empty and duplicate-free.
  FlowId start_flow(std::vector<ResourceId> path, Bytes bytes,
                    std::function<void()> on_complete);

  /// Coroutine-friendly transfer: suspends the calling process until the
  /// flow completes.
  Task transfer(std::vector<ResourceId> path, Bytes bytes);

  /// Deadline-bounded transfer: suspends until the flow completes or
  /// `timeout` seconds elapse, whichever comes first.  On timeout the
  /// flow is cancelled (its undelivered bytes are abandoned, see
  /// `bytes_cancelled()`) and `*completed` is set false; on completion
  /// the timer is cancelled and `*completed` is set true.  The client
  /// observing a timed-out request maps to the paper's "lost connection
  /// to an I/O server": the payload is gone and must be re-sent.
  Task transfer_within(std::vector<ResourceId> path, Bytes bytes,
                       SimTime timeout, bool* completed);

  /// Abort an active flow: its remaining bytes are dropped (credited to
  /// `bytes_cancelled()`), rates are re-solved, and its on_complete never
  /// fires.  Harmless no-op if the flow already finished.
  void cancel_flow(FlowId id);

  std::size_t active_flows() const { return flows_.size(); }

  /// Current allocated rate of an active flow (0 if unknown/finished).
  double flow_rate(FlowId id) const;

  /// Cumulative bytes delivered across all completed flows.
  Bytes bytes_delivered() const { return bytes_delivered_; }

  /// Cumulative bytes injected by start_flow()/transfer() since creation.
  Bytes bytes_injected() const { return bytes_injected_; }

  /// Cumulative undelivered bytes abandoned by cancel_flow().
  Bytes bytes_cancelled() const { return bytes_cancelled_; }

  /// Test hook (not in FlowNetwork): every active flow's (id, rate), in
  /// admission order, so a comparison costs one pass per event.
  std::vector<std::pair<FlowId, double>> rates() const {
    std::vector<std::pair<FlowId, double>> out;
    out.reserve(flows_.size());
    for (const auto& f : flows_) out.emplace_back(f.id, f.rate);
    return out;
  }

  /// Test hook (not in FlowNetwork): the path of any flow started so far.
  /// Both networks issue ids in the same order, so this is also the path
  /// of FlowNetwork's flow of that id.
  const std::vector<ResourceId>& path_of(FlowId id) const {
    return paths_.at(static_cast<std::size_t>(id - 1));
  }

 private:
  struct Flow {
    FlowId id = kInvalidFlow;
    std::vector<ResourceId> path;
    Bytes remaining = 0.0;
    double rate = 0.0;
    std::function<void()> on_complete;
  };

  /// Integrate progress of all flows up to sim_.now().
  void advance();
  /// Re-solve max-min fair sharing (progressive filling).
  void recompute_rates();
  /// Byte conservation: injected == delivered + cancelled + in-flight
  /// (within fp noise).  Backs an ACIC_DCHECK after every completion
  /// sweep.
  bool bytes_conserved() const;
  /// Allocation feasibility: no resource carries more than its capacity.
  bool rates_feasible() const;
  /// (Re)arm the single pending completion event.
  void schedule_next_completion();
  void handle_completion_event(std::uint64_t generation);

  Simulator& sim_;
  struct Resource {
    std::string name;
    double capacity;
  };
  std::vector<Resource> resources_;
  std::vector<Flow> flows_;
  std::vector<std::vector<ResourceId>> paths_;  ///< by id - 1 (path_of())
  SimTime last_update_ = 0.0;
  std::uint64_t generation_ = 0;
  FlowId next_flow_id_ = 1;
  Bytes bytes_delivered_ = 0.0;
  Bytes bytes_injected_ = 0.0;
  Bytes bytes_cancelled_ = 0.0;
};

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

ResourceId ReferenceFlowNetwork::add_resource(std::string name, double capacity) {
  ACIC_EXPECTS(capacity >= 0.0, "negative capacity " << capacity << " for "
                                                     << name);
  resources_.push_back(Resource{std::move(name), capacity});
  return resources_.size() - 1;
}

void ReferenceFlowNetwork::set_capacity(ResourceId id, double capacity) {
  ACIC_EXPECTS(id < resources_.size(), "unknown resource " << id);
  ACIC_EXPECTS(capacity >= 0.0, "negative capacity " << capacity << " for "
                                                     << resources_[id].name);
  advance();
  resources_[id].capacity = capacity;
  recompute_rates();
  schedule_next_completion();
}

double ReferenceFlowNetwork::capacity(ResourceId id) const {
  ACIC_EXPECTS(id < resources_.size(), "unknown resource " << id);
  return resources_[id].capacity;
}

FlowId ReferenceFlowNetwork::start_flow(std::vector<ResourceId> path, Bytes bytes,
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
  paths_.push_back(path);
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

Task ReferenceFlowNetwork::transfer(std::vector<ResourceId> path, Bytes bytes) {
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

Task ReferenceFlowNetwork::transfer_within(std::vector<ResourceId> path, Bytes bytes,
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

void ReferenceFlowNetwork::cancel_flow(FlowId id) {
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

double ReferenceFlowNetwork::flow_rate(FlowId id) const {
  for (const auto& f : flows_) {
    if (f.id == id) return f.rate;
  }
  return 0.0;
}

void ReferenceFlowNetwork::advance() {
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

void ReferenceFlowNetwork::recompute_rates() {
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

void ReferenceFlowNetwork::schedule_next_completion() {
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

void ReferenceFlowNetwork::handle_completion_event(std::uint64_t generation) {
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

bool ReferenceFlowNetwork::bytes_conserved() const {
  Bytes in_flight = 0.0;
  for (const auto& f : flows_) in_flight += f.remaining;
  const Bytes drift =
      bytes_injected_ - (bytes_delivered_ + bytes_cancelled_ + in_flight);
  // fp noise from rate integration scales with the totals involved.
  const Bytes tolerance =
      1e-6 * std::max(1.0, bytes_injected_);
  return drift >= -tolerance && drift <= tolerance;
}

bool ReferenceFlowNetwork::rates_feasible() const {
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

// --- Scripts ----------------------------------------------------------------

/// One scripted action, applied identically to both networks: a
/// start_flow(), a coroutine transfer() or transfer_within(), a
/// cancel_flow() or a set_capacity().
struct Step {
  enum Kind { kStart, kTransfer, kTimed, kCancel, kCapacity };
  Kind kind = kStart;
  SimTime at = 0.0;
  std::vector<ResourceId> path;  ///< kStart, kTransfer, kTimed
  Bytes bytes = 0.0;             ///< kStart, kTransfer, kTimed
  SimTime timeout = 0.0;         ///< kTimed
  std::size_t target = 0;        ///< kCancel: the kStart step to cancel
  ResourceId resource = 0;       ///< kCapacity
  double capacity = 0.0;         ///< kCapacity
};

struct Script {
  std::vector<double> capacities;
  std::vector<Step> steps;  ///< scheduled in this order (FIFO on ties)
};

Step start(SimTime at, std::vector<ResourceId> path, Bytes bytes) {
  Step s;
  s.at = at;
  s.path = std::move(path);
  s.bytes = bytes;
  return s;
}

Step transfer(SimTime at, std::vector<ResourceId> path, Bytes bytes) {
  Step s = start(at, std::move(path), bytes);
  s.kind = Step::kTransfer;
  return s;
}

Step timed(SimTime at, std::vector<ResourceId> path, Bytes bytes,
           SimTime timeout) {
  Step s = start(at, std::move(path), bytes);
  s.kind = Step::kTimed;
  s.timeout = timeout;
  return s;
}

Step cancel(SimTime at, std::size_t target) {
  Step s;
  s.kind = Step::kCancel;
  s.at = at;
  s.target = target;
  return s;
}

Step set_capacity(SimTime at, ResourceId resource, double capacity) {
  Step s;
  s.kind = Step::kCapacity;
  s.at = at;
  s.resource = resource;
  s.capacity = capacity;
  return s;
}

/// One network under test and what its callbacks reported.
template <typename Net>
struct Side {
  Simulator sim;
  Net net{sim};
  std::vector<FlowId> flow_of;  ///< per step: the flow a kStart began
  /// (step, time) per completion callback; a timed-out kTimed step logs
  /// as -1 - step.
  std::vector<std::pair<long, SimTime>> log;
};

/// A script path as each network takes it: the reference keeps its
/// std::vector, FlowNetwork takes the inline FlowPath.
const std::vector<ResourceId>& path_for(const ReferenceFlowNetwork&,
                                        const std::vector<ResourceId>& path) {
  return path;
}

FlowPath path_for(const FlowNetwork&, const std::vector<ResourceId>& path) {
  FlowPath inline_path;
  for (ResourceId r : path) inline_path.push_back(r);
  return inline_path;
}

template <typename Net>
Task plain_transfer(Side<Net>* side, const Step* st, long step) {
  co_await side->net.transfer(path_for(side->net, st->path), st->bytes);
  side->log.emplace_back(step, side->sim.now());
}

template <typename Net>
Task timed_transfer(Side<Net>* side, const Step* st, long step) {
  bool completed = false;
  if constexpr (std::is_same_v<Net, FlowNetwork>) {
    completed = co_await side->net.transfer_within(
        path_for(side->net, st->path), st->bytes, st->timeout);
  } else {
    co_await side->net.transfer_within(st->path, st->bytes, st->timeout,
                                       &completed);
  }
  side->log.emplace_back(completed ? step : -1 - step, side->sim.now());
}

template <typename Net>
void load(Side<Net>& side, const Script& script) {
  for (std::size_t r = 0; r < script.capacities.size(); ++r) {
    side.net.add_resource("r" + std::to_string(r), script.capacities[r]);
  }
  side.flow_of.assign(script.steps.size(), kInvalidFlow);
  for (std::size_t i = 0; i < script.steps.size(); ++i) {
    const Step& st = script.steps[i];
    const long tag = static_cast<long>(i);
    switch (st.kind) {
      case Step::kStart:
        side.sim.at(st.at, [&side, &st, tag] {
          side.flow_of[static_cast<std::size_t>(tag)] = side.net.start_flow(
              path_for(side.net, st.path), st.bytes,
              [&side, tag] { side.log.emplace_back(tag, side.sim.now()); });
        });
        break;
      case Step::kTransfer:
        side.sim.at(st.at, [&side, &st, tag] {
          side.sim.spawn(plain_transfer(&side, &st, tag));
        });
        break;
      case Step::kTimed:
        side.sim.at(st.at, [&side, &st, tag] {
          side.sim.spawn(timed_transfer(&side, &st, tag));
        });
        break;
      case Step::kCancel:
        side.sim.at(st.at, [&side, &st] {
          side.net.cancel_flow(side.flow_of[st.target]);
        });
        break;
      case Step::kCapacity:
        side.sim.at(st.at, [&side, &st] {
          side.net.set_capacity(st.resource, st.capacity);
        });
        break;
    }
  }
}

// The tolerance FlowNetwork is held to, relative to the reference's value
// (for byte totals: to the bytes injected).
constexpr double kTolerance = 1e-9;

bool close(double got, double want, double scale) {
  return std::abs(got - want) <= kTolerance * scale;
}

/// The reference's state after the last event at one instant.
struct Snapshot {
  SimTime t = 0.0;
  std::vector<std::pair<FlowId, double>> rates;
  Bytes delivered = 0.0;
  Bytes cancelled = 0.0;
};

/// Empty when FlowNetwork's state agrees with `want` within tolerance;
/// otherwise the first difference.
std::string state_difference(const Side<FlowNetwork>& a, const Snapshot& want,
                             Bytes injected) {
  std::ostringstream os;
  os.precision(17);
  if (a.net.active_flows() != want.rates.size()) {
    os << "active flows " << a.net.active_flows() << " vs "
       << want.rates.size();
  } else if (!close(a.net.bytes_delivered(), want.delivered, injected)) {
    os << "bytes delivered " << a.net.bytes_delivered() << " vs "
       << want.delivered;
  } else if (!close(a.net.bytes_cancelled(), want.cancelled, injected)) {
    os << "bytes cancelled " << a.net.bytes_cancelled() << " vs "
       << want.cancelled;
  } else {
    for (const auto& [id, rate] : want.rates) {
      const double got = a.net.flow_rate(id);
      if (!close(got, rate, rate)) {
        os << "flow " << id << " rate " << got << " vs " << rate;
        break;
      }
    }
  }
  return os.str();
}

/// Empty when FlowNetwork's rates for the reference's active flows in
/// `want`, on the reference's paths and FlowNetwork's capacities, are
/// max-min fair by the definition: no resource carries more than its
/// capacity, and every flow crosses a resource loaded to within the
/// tolerance of its capacity on which no flow is faster than it by more
/// than the tolerance.  Otherwise the first violation.
std::string max_min_violation(const Side<FlowNetwork>& a,
                              const Side<ReferenceFlowNetwork>& b,
                              const Snapshot& want,
                              std::size_t resources) {
  std::vector<double> load(resources, 0.0);
  std::vector<double> fastest(resources, 0.0);
  for (const auto& active : want.rates) {
    const FlowId id = active.first;
    const double rate = a.net.flow_rate(id);
    for (ResourceId r : b.net.path_of(id)) {
      load[r] += rate;
      fastest[r] = std::max(fastest[r], rate);
    }
  }
  std::ostringstream os;
  os.precision(17);
  for (ResourceId r = 0; r < resources; ++r) {
    const double capacity = a.net.capacity(r);
    if (load[r] > capacity * (1.0 + kTolerance)) {
      os << "resource " << r << " carries " << load[r] << " over capacity "
         << capacity;
      return os.str();
    }
  }
  for (const auto& active : want.rates) {
    const FlowId id = active.first;
    const double rate = a.net.flow_rate(id);
    bool bottlenecked = false;
    for (ResourceId r : b.net.path_of(id)) {
      bottlenecked |= load[r] >= a.net.capacity(r) * (1.0 - kTolerance) &&
                      fastest[r] <= rate * (1.0 + kTolerance);
    }
    if (!bottlenecked) {
      os << "flow " << id << " at rate " << rate
         << " crosses no saturated resource where it is fastest";
      return os.str();
    }
  }
  return os.str();
}

/// Empty when the two callback logs agree within tolerance; otherwise the
/// first difference.
std::string log_difference(const std::vector<std::pair<long, SimTime>>& got,
                           const std::vector<std::pair<long, SimTime>>& want) {
  std::ostringstream os;
  os.precision(17);
  if (got.size() != want.size()) {
    os << "callbacks " << got.size() << " vs " << want.size();
    return os.str();
  }
  // Position in the reference log of each step's outcome.
  std::map<long, std::size_t> at;
  for (std::size_t i = 0; i < want.size(); ++i) at[want[i].first] = i;
  SimTime latest = 0.0;  // latest reference time among earlier callbacks
  for (std::size_t i = 0; i < got.size(); ++i) {
    const auto [step, t] = got[i];
    const auto it = at.find(step);
    if (it == at.end()) {
      os << "callback " << i << ": step " << step
         << " never ends that way in the reference";
      break;
    }
    const SimTime t_ref = want[it->second].second;
    if (!close(t, t_ref, t_ref)) {
      os << "step " << step << " ends at " << t << " vs " << t_ref;
      break;
    }
    if (!close(std::min(t_ref, latest), latest, latest)) {
      os << "step " << step << " (reference time " << t_ref
         << ") ends after a step the reference ends at " << latest;
      break;
    }
    // Callbacks that both networks fire at one instant keep their order.
    const std::size_t prev = i > 0 ? at.at(got[i - 1].first) : 0;
    if (i > 0 && got[i - 1].second == t && want[prev].second == t_ref &&
        prev > it->second) {
      os << "steps " << got[i - 1].first << " and " << step
         << " end in reverse order at " << t;
      break;
    }
    latest = std::max(latest, t_ref);
  }
  return os.str();
}

struct Outcome {
  std::uint64_t events = 0;  ///< FlowNetwork side
  std::size_t callbacks = 0;
  std::size_t compared = 0;  ///< states compared between instants
  /// Distinct rates among the reference's active flows after any instant.
  std::size_t max_distinct_rates = 0;
};

/// Runs `script` on both networks and checks FlowNetwork against the
/// reference within tolerance.
Outcome run_checked(const Script& script) {
  Outcome out;
  // The reference's instants: its state after the last event at each
  // distinct event time.
  Side<ReferenceFlowNetwork> b;
  load(b, script);
  std::vector<Snapshot> instants;
  while (b.sim.step()) {
    if (instants.empty() || instants.back().t != b.sim.now()) {
      instants.emplace_back();
    }
    Snapshot& snap = instants.back();
    snap.t = b.sim.now();
    snap.rates = b.net.rates();
    snap.delivered = b.net.bytes_delivered();
    snap.cancelled = b.net.bytes_cancelled();
    std::set<double> rates;
    for (const auto& [id, rate] : snap.rates) rates.insert(rate);
    out.max_distinct_rates = std::max(out.max_distinct_rates, rates.size());
    // The reference's own accessor agrees with its test hook.
    if (!snap.rates.empty()) {
      EXPECT_EQ(b.net.flow_rate(snap.rates.back().first),
                snap.rates.back().second);
    }
  }
  const Bytes injected = b.net.bytes_injected();

  // FlowNetwork, stopped between every two reference instants that lie
  // further apart than the tolerance, where both must be in one state.
  Side<FlowNetwork> a;
  load(a, script);
  for (std::size_t k = 0; k + 1 < instants.size(); ++k) {
    const SimTime t = instants[k].t;
    const SimTime next = instants[k + 1].t;
    if (next - t <= 2.0 * kTolerance * next) continue;
    a.sim.run_until(t + 0.5 * (next - t));
    std::string diff = state_difference(a, instants[k], injected);
    if (diff.empty()) {
      diff = max_min_violation(a, b, instants[k], script.capacities.size());
    }
    if (!diff.empty()) {
      ADD_FAILURE() << "between t=" << t << " and t=" << next << ": " << diff;
      return out;
    }
    ++out.compared;
  }
  a.sim.run();
  out.events = a.sim.events_executed();
  out.callbacks = a.log.size();

  const std::string diff = log_difference(a.log, b.log);
  EXPECT_TRUE(diff.empty()) << diff;
  EXPECT_EQ(a.net.active_flows(), 0u);
  EXPECT_EQ(b.net.active_flows(), 0u);
  for (ResourceId r = 0; r < script.capacities.size(); ++r) {
    EXPECT_EQ(a.net.capacity(r), b.net.capacity(r));
  }
  EXPECT_EQ(a.net.bytes_injected(), injected);
  EXPECT_NEAR(a.net.bytes_delivered() + a.net.bytes_cancelled(), injected,
              kTolerance * injected);
  return out;
}

/// A seeded random script: 2-40 resources with capacities from a small
/// set (so shares tie inside the solver's slack) including zeros (so
/// flows stall), duplicate-free paths of 1-4 hops, arrivals on a
/// quarter-second grid (so some share a timestamp with each other and
/// with completions), cancels, capacity changes, and transfer_within
/// timeouts on the same grid racing completions.  A final round of
/// capacity changes restores every resource so everything drains.
Script random_script(std::uint64_t seed) {
  static constexpr double kCapacities[] = {0.0,   25.0,  50.0, 75.0,
                                           100.0, 150.0, 300.0};
  static constexpr double kSizes[] = {25.0, 50.0, 100.0, 250.0, 1000.0};
  Rng rng(seed);
  Script s;
  const std::size_t nres = 2 + rng.uniform_index(39);
  for (std::size_t r = 0; r < nres; ++r) {
    s.capacities.push_back(kCapacities[rng.uniform_index(
        std::size(kCapacities))]);
  }
  const auto grid = [&rng](std::uint64_t slots) {
    return 0.25 * static_cast<double>(rng.uniform_index(slots));
  };
  const std::size_t nflows = 20 + rng.uniform_index(140);
  for (std::size_t i = 0; i < nflows; ++i) {
    const std::size_t hops =
        1 + rng.uniform_index(std::min<std::size_t>(4, nres));
    const auto order = rng.permutation(nres);
    std::vector<ResourceId> path(order.begin(),
                                 order.begin() + static_cast<long>(hops));
    const Bytes bytes = rng.uniform() < 0.6
                            ? kSizes[rng.uniform_index(std::size(kSizes))]
                            : rng.uniform(1.0, 2000.0);
    const SimTime at = grid(80);
    const double kind = rng.uniform();
    if (kind < 0.2) {
      s.steps.push_back(timed(at, std::move(path), bytes, 0.25 + grid(40)));
    } else if (kind < 0.3) {
      s.steps.push_back(transfer(at, std::move(path), bytes));
    } else {
      s.steps.push_back(start(at, std::move(path), bytes));
    }
  }
  for (std::size_t i = 0; i < nflows; ++i) {
    if (s.steps[i].kind == Step::kStart && rng.uniform() < 0.15) {
      s.steps.push_back(cancel(s.steps[i].at + grid(40), i));
    }
  }
  const std::size_t changes = rng.uniform_index(16);
  for (std::size_t i = 0; i < changes; ++i) {
    s.steps.push_back(set_capacity(
        grid(120), rng.uniform_index(nres),
        kCapacities[rng.uniform_index(std::size(kCapacities))]));
  }
  for (std::size_t r = 0; r < nres; ++r) {
    s.steps.push_back(set_capacity(40.0, r, 100.0));
  }
  return s;
}

TEST(FlowNetworkDifferential, RandomScriptsAgreeWithinTolerance) {
  std::uint64_t callbacks = 0;
  std::uint64_t compared = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("script seed " + std::to_string(seed));
    const Outcome out = run_checked(random_script(seed));
    if (HasFailure()) return;
    callbacks += out.callbacks;
    compared += out.compared;
  }
  EXPECT_GT(callbacks, 1000u);  // the scripts really do complete flows
  EXPECT_GT(compared, 1000u);   // and are compared at many instants
}

// Hundreds of flows through one shared resource, all admitted at one
// instant: the regime the cluster spends most solver time in.  The
// reference deducts the fair share from the shared residual once per
// frozen flow, which drifts by rounding, so its last flows of a round can
// miss the bottleneck slack and freeze in a later round at a slightly
// different rate; FlowNetwork deducts count x share once per path group.
// The two must still agree within tolerance.
TEST(FlowNetworkDifferential, ManyFlowsThroughOneSharedResource) {
  Script s;
  s.capacities.push_back(1.0e9 / 3.0);  // the shared resource
  for (int nic = 0; nic < 8; ++nic) s.capacities.push_back(1.0e9);
  constexpr int kFlows = 640;
  for (int i = 0; i < kFlows; ++i) {
    const ResourceId nic = 1 + static_cast<ResourceId>(i % 8);
    s.steps.push_back(start(0.0, {nic, 0}, 1.0e6 + 977.0 * i));
  }
  const Outcome out = run_checked(s);
  EXPECT_EQ(out.callbacks, static_cast<std::size_t>(kFlows));
  // Rounding drift really did split the shared resource's flows across
  // filling rounds.
  EXPECT_GE(out.max_distinct_rates, 2u);
}

// A scaled-down PB row 28 (np = 256 POSIX reads over four part-time PVFS2
// servers on EBS): four server devices behind their NICs and 32 client
// NICs, each client issuing four staggered requests that fan out to all
// four servers, reads device -> server NIC -> client NIC and writes the
// other way.  Devices 0 and 1 differ by 1e-13 relative, so whenever they
// carry as many flows they tie inside the solver's bottleneck slack.  A
// brownout drops device 2 below the other devices' level and lifts it
// again; groups activate and empty throughout; four flows are cancelled
// mid-flight.
Script wide_striped_fan_outs() {
  constexpr int kClients = 32;
  constexpr int kServers = 4;
  Script s;
  s.capacities = {400.0, 400.0 * (1.0 + 1e-13), 400.0, 400.0};  // devices
  for (int srv = 0; srv < kServers; ++srv) s.capacities.push_back(1000.0);
  for (int c = 0; c < kClients; ++c) s.capacities.push_back(1000.0);
  for (int c = 0; c < kClients; ++c) {
    for (int k = 0; k < 4; ++k) {
      const SimTime at = 0.25 * c + 3.0 * k;
      const bool write = (c + k) % 3 == 0;
      for (int srv = 0; srv < kServers; ++srv) {
        const ResourceId dev = static_cast<ResourceId>(srv);
        const ResourceId nic = static_cast<ResourceId>(kServers + srv);
        const ResourceId cli = static_cast<ResourceId>(2 * kServers + c);
        const Bytes bytes = 150.0 + 10.0 * ((7 * c + 3 * k + srv) % 13);
        s.steps.push_back(start(at,
                                write ? std::vector<ResourceId>{cli, nic, dev}
                                      : std::vector<ResourceId>{dev, nic, cli},
                                bytes));
      }
    }
  }
  for (std::size_t target : {37u, 150u, 301u, 410u}) {
    s.steps.push_back(cancel(s.steps[target].at + 0.5, target));
  }
  s.steps.push_back(set_capacity(6.0, 2, 100.0));
  s.steps.push_back(set_capacity(9.0, 2, 400.0));
  return s;
}

TEST(FlowNetworkDifferential, WideStripedFanOutsKeepTheirLevels) {
  const Outcome out = run_checked(wide_striped_fan_outs());
  EXPECT_EQ(out.callbacks, 32u * 4u * 4u - 4u);
  EXPECT_GT(out.compared, 500u);
  // Devices, a browned-out device and client NICs bottleneck flows at
  // different rates.
  EXPECT_GE(out.max_distinct_rates, 3u);
}

// The same script mostly re-prices one level at a time: at least 90% of
// FlowNetwork's solves skip progressive filling.
TEST(FlowNetwork, WideFanOutsTakeTheFastPath) {
  auto& registry = obs::MetricsRegistry::global();
  obs::Counter& solves = registry.counter("sim.flow.solves");
  obs::Counter& full_solves = registry.counter("sim.flow.full_solves");
  const Script script = wide_striped_fan_outs();
  const double solves_before = solves.value();
  const double full_before = full_solves.value();
  {
    Side<FlowNetwork> a;
    load(a, script);
    a.sim.run();
    EXPECT_EQ(a.log.size(), 32u * 4u * 4u - 4u);
  }  // the network reports its counts as it goes
  const double made = solves.value() - solves_before;
  const double full = full_solves.value() - full_before;
  EXPECT_GT(made, 1000.0);
  EXPECT_LE(full, 0.1 * made) << full << " of " << made
                              << " solves ran progressive filling";
}

// A resource drops to zero mid-transfer and comes back: its flows stall
// at rate zero (and schedule nothing), flows elsewhere speed up, a
// deadline-bounded transfer times out during the outage, and the stalled
// flows resume from the bytes they had when the capacity returns.
TEST(FlowNetworkDifferential, StallAndRestore) {
  Script s;
  s.capacities = {100.0, 100.0, 60.0};
  s.steps.push_back(start(0.0, {0, 1}, 500.0));
  s.steps.push_back(start(0.0, {1, 2}, 400.0));
  s.steps.push_back(start(0.5, {0}, 300.0));
  s.steps.push_back(timed(1.0, {0, 2}, 1000.0, 3.0));  // times out at 4.0
  s.steps.push_back(timed(1.0, {1}, 50.0, 3.0));       // completes
  s.steps.push_back(set_capacity(2.0, 0, 0.0));
  s.steps.push_back(start(2.0, {0, 2}, 100.0));  // admitted while stalled
  s.steps.push_back(set_capacity(5.0, 0, 100.0));
  const Outcome out = run_checked(s);
  EXPECT_EQ(out.callbacks, 6u);
}

// A deadline landing on the very instant its flow completes: the timer
// wins and the transfer reports a timeout although every byte arrived.
// Here the timers were armed before the completion event, so they fire
// first; FlowNetwork.TransferWithinTimesOutWhenTheFlowEndsOnTheDeadline
// covers the other order.  Both networks must resolve the race the same
// way.
TEST(FlowNetworkDifferential, TimeoutRacingACompletionAtOneInstant) {
  Script s;
  s.capacities = {100.0, 100.0};
  s.steps.push_back(timed(0.0, {0}, 250.0, 2.5));  // completes at 2.5
  s.steps.push_back(start(0.0, {1}, 100.0));
  s.steps.push_back(timed(0.0, {1}, 300.0, 2.5));  // cut off mid-flight
  Side<FlowNetwork> probe;
  load(probe, s);
  probe.sim.run();
  const std::vector<std::pair<long, SimTime>> want = {
      {1, 2.0}, {-1, 2.5}, {-3, 2.5}};
  EXPECT_EQ(probe.log, want);
  // 100 B at 50 B/s, then 50 B alone, before the deadline cancels it.
  EXPECT_EQ(probe.net.bytes_delivered(), 250.0 + 100.0 + 150.0);
  EXPECT_EQ(probe.net.bytes_cancelled(), 150.0);
  const Outcome out = run_checked(s);
  EXPECT_EQ(out.callbacks, 3u);
}

// Each arrival re-solves and moves the pending completion event,
// cancelling the one it supersedes, and each finished flow's callback
// runs inside its completion event: six staggered admissions and six
// completions are exactly twelve events.
TEST(FlowNetwork, SupersededCompletionsLeaveNoEventBehind) {
  Script s;
  s.capacities = {100.0};
  for (int i = 0; i < 6; ++i) {
    s.steps.push_back(start(0.5 * i, {0}, 200.0));
  }
  const Outcome out = run_checked(s);
  EXPECT_EQ(out.callbacks, 6u);
  EXPECT_EQ(out.events, 12u);
}

// Flows that finish at one instant fire their callbacks in admission
// order, whichever path group they belong to.
TEST(FlowNetworkDifferential, CallbacksAtOneInstantFireInAdmissionOrder) {
  Script s;
  s.capacities = {100.0, 100.0};
  s.steps.push_back(start(0.0, {1}, 200.0));
  s.steps.push_back(start(0.0, {0}, 100.0));
  s.steps.push_back(start(0.0, {0}, 100.0));
  s.steps.push_back(start(0.0, {1}, 200.0));
  s.steps.push_back(start(0.0, {0}, 100.0));
  s.steps.push_back(start(0.0, {1}, 200.0));
  Side<FlowNetwork> probe;
  load(probe, s);
  probe.sim.run();
  const std::vector<std::pair<long, SimTime>> want = {
      {0, 6.0}, {1, 3.0}, {2, 3.0}, {3, 6.0}, {4, 3.0}, {5, 6.0}};
  ASSERT_EQ(probe.log.size(), want.size());
  // Each path's three flows end together; the two paths' instants are
  // logged in time order, each in admission order.
  const std::vector<long> order = {1, 2, 4, 0, 3, 5};
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(probe.log[i].first, order[i]) << "callback " << i;
    EXPECT_NEAR(probe.log[i].second,
                want[static_cast<std::size_t>(order[i])].second, 1e-12);
  }
  run_checked(s);
}

// A path group's virtual clock restarts at zero when the group becomes
// active again.  Here the first flow moves 1e18 bytes through the path,
// where one ulp of the clock is 128 bytes, so a later 250-byte flow timed
// against the old clock would finish 2% late.
TEST(FlowNetworkDifferential, PathIdleAfterAHugeTransferRestartsItsClock) {
  Script s;
  s.capacities = {1.0e18};
  s.steps.push_back(start(0.0, {0}, 1.0e18));  // done at 1.0
  s.steps.push_back(set_capacity(2.0, 0, 100.0));
  s.steps.push_back(start(2.0, {0}, 250.0));  // done at 4.5
  const Outcome out = run_checked(s);
  EXPECT_EQ(out.callbacks, 2u);
}

// A cancelled flow leaves a stale finish tag at the head of its group's
// heap: the survivors must neither wait on it nor be finished by it.
TEST(FlowNetworkDifferential, CancelledFlowAtTheHeadOfItsPath) {
  Script s;
  s.capacities = {100.0, 100.0};
  s.steps.push_back(start(0.0, {0}, 100.0));      // cancelled at 1.0
  s.steps.push_back(start(0.0, {0}, 300.0));      // alone from 1.0
  s.steps.push_back(start(0.0, {0, 1}, 500.0));
  s.steps.push_back(cancel(1.0, 0));
  s.steps.push_back(start(1.5, {0}, 40.0));       // slot reuse after cancel
  const Outcome out = run_checked(s);
  EXPECT_EQ(out.callbacks, 3u);
}

}  // namespace
}  // namespace acic::sim
