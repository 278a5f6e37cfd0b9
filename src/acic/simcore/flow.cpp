#include "acic/simcore/flow.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "acic/common/error.hpp"
#include "acic/obs/metrics.hpp"

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
constexpr double kInfinity = std::numeric_limits<double>::infinity();
// The optimality certificate's relative tolerance.
constexpr double kFairSlack = 1e-9;

bool flow_done(Bytes remaining, double rate) {
  if (remaining <= kEpsilonBytes) return true;
  return rate > 0.0 && remaining <= rate * kTimeQuantum;
}

bool path_is_duplicate_free(const FlowPath& path) {
  for (std::size_t i = 0; i < path.size(); ++i) {
    for (std::size_t j = i + 1; j < path.size(); ++j) {
      if (path[i] == path[j]) return false;
    }
  }
  return true;
}
}  // namespace

FlowNetwork::~FlowNetwork() {
  if (solves_ == 0) return;
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("sim.flow.solves").add(static_cast<double>(solves_));
  registry.counter("sim.flow.full_solves")
      .add(static_cast<double>(full_solves_));
}

ResourceId FlowNetwork::add_resource(std::string name, double capacity) {
  ACIC_EXPECTS(std::isfinite(capacity), "non-finite capacity " << capacity
                                                               << " for "
                                                               << name);
  ACIC_EXPECTS(capacity >= 0.0, "negative capacity " << capacity << " for "
                                                     << name);
  // Flow paths store resource ids as 32-bit indices.
  ACIC_DCHECK(resources_.size() < kNone, "too many flow resources");
  resources_.push_back(Resource{std::move(name), capacity});
  return resources_.size() - 1;
}

void FlowNetwork::set_capacity(ResourceId id, double capacity) {
  ACIC_EXPECTS(id < resources_.size(), "unknown resource " << id);
  ACIC_EXPECTS(std::isfinite(capacity), "non-finite capacity "
                                            << capacity << " for "
                                            << resources_[id].name);
  ACIC_EXPECTS(capacity >= 0.0, "negative capacity " << capacity << " for "
                                                     << resources_[id].name);
  advance();
  resources_[id].capacity = capacity;
  solve(false);
  schedule_next_completion();
}

double FlowNetwork::capacity(ResourceId id) const {
  ACIC_EXPECTS(id < resources_.size(), "unknown resource " << id);
  return resources_[id].capacity;
}

void FlowNetwork::check_flow(const FlowPath& path, Bytes bytes) const {
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
}

FlowId FlowNetwork::start_flow(const FlowPath& path, Bytes bytes,
                               std::function<void()> on_complete) {
  check_flow(path, bytes);
  return admit(path, bytes, std::move(on_complete));
}

FlowId FlowNetwork::admit(const FlowPath& path, Bytes bytes,
                          std::function<void()> on_complete) {
  const FlowId id = next_flow_id_++;
  bytes_injected_ += bytes;
  if (bytes <= kEpsilonBytes) {
    record_slot(kNone);  // never enters
    bytes_delivered_ += bytes;
    if (on_complete) sim_.at(sim_.now(), std::move(on_complete));
    return id;
  }
  advance();
  Path padded;
  for (std::size_t h = 0; h < kMaxPathHops; ++h) {
    padded[h] = static_cast<std::uint32_t>(path[std::min(h, path.size() - 1)]);
  }
  const std::uint32_t gi =
      group_for(padded, static_cast<std::uint32_t>(path.size()));
  Group& g = groups_[gi];
  const bool activates = g.count++ == 0;
  if (activates) {
    g.offset = 0.0;  // vtime 0, outside any level until priced
    active_.push_back(gi);
  } else {
    ++levels_[g.level].count;
  }
  for (std::uint32_t h = 0; h < g.hops; ++h) {
    Resource& res = resources_[g.path[h]];
    if (res.crossing++ == 0) {
      res.in_use_pos = static_cast<std::uint32_t>(in_use_.size());
      in_use_.push_back(g.path[h]);
      res.load = 0.0;
    }
  }
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(flows_.size());
    ACIC_CHECK(slot != kNone, "flow slot arena exhausted");
    flows_.emplace_back();
    callbacks_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  flows_[slot] = Flow{vtime(g) + bytes, id, gi};
  callbacks_[slot] = std::move(on_complete);
  g.tags.push_back(Tag{flows_[slot].finish, id, slot});
  std::push_heap(g.tags.begin(), g.tags.end(), finishes_later);
  ++active_count_;
  record_slot(slot);

  // Price the flow in its group's level; a group that becomes active
  // joins the level whose bottleneck it crosses.  The flow's load is
  // booked at the level's old rate, which the re-price then moves.
  const std::uint32_t li = activates ? level_to_join(g) : g.level;
  if (li != kNone) {
    if (activates) {
      join(gi, li);
    } else {
      g.due = g.tags.front().finish - g.offset;
    }
    const double rate = levels_[li].rate;
    for (std::uint32_t h = 0; h < g.hops; ++h) {
      resources_[g.path[h]].load += rate;
    }
  }
  solve(li != kNone && reprice(li, gi));
  schedule_next_completion();
  return id;
}

void FlowNetwork::TimedTransfer::await_suspend(std::coroutine_handle<> h) {
  waiter_ = h;
  // The flow first, then the timer: the order the events were always
  // scheduled in.
  flow_ = net_->admit(path_, bytes_, [this] { flow_done(); });
  timer_ = net_->sim_.at(deadline_, [this] { timed_out(); });
}

void FlowNetwork::TimedTransfer::flow_done() {
  // A flow the completion event finishes on the deadline's own instant
  // loses to the timer, which fires later in this instant, as it did
  // while each completion callback was an event queued behind every
  // pending one; the timer's cancel_flow() is then a no-op.  A zero-byte
  // flow completes through an event queued ahead of the timer and wins.
  if (deadline_ == net_->sim_.now() && bytes_ > kEpsilonBytes) return;
  net_->sim_.cancel(timer_);
  completed_ = true;
  waiter_.resume();
}

void FlowNetwork::TimedTransfer::timed_out() {
  net_->cancel_flow(flow_);  // drops the flow's callback with it
  waiter_.resume();
}

void FlowNetwork::cancel_flow(FlowId id) {
  const std::uint32_t slot = slot_of(id);
  // Already completed (or never admitted, e.g. a zero-byte flow): no-op.
  if (slot == kNone) return;
  advance();
  const std::uint32_t gi = flows_[slot].group;
  Group& g = groups_[gi];
  const std::uint32_t li = g.level;
  bytes_cancelled_ += flows_[slot].finish - vtime(g);
  const bool head = g.tags.front().id == id;
  retire(slot);
  free_slot(slot);
  if (head && g.count > 0) drop_stale_tags(g);
  solve(reprice(li, kNone));
  schedule_next_completion();
}

double FlowNetwork::flow_rate(FlowId id) const {
  const std::uint32_t slot = slot_of(id);
  return slot == kNone ? 0.0 : levels_[groups_[flows_[slot].group].level].rate;
}

void FlowNetwork::record_slot(std::uint32_t slot) {
  slot_of_.push_back(slot);
  // Advance past finished ids, then drop the dead prefix once it
  // dominates the window: amortised O(1) per id.
  while (window_head_ < slot_of_.size() &&
         slot_of_[window_head_] == kNone) {
    ++window_head_;
  }
  if (window_head_ >= 64 && window_head_ * 2 >= slot_of_.size()) {
    slot_of_.erase(slot_of_.begin(),
                   slot_of_.begin() +
                       static_cast<std::ptrdiff_t>(window_head_));
    window_base_ += window_head_;
    window_head_ = 0;
  }
}

std::uint32_t FlowNetwork::slot_of(FlowId id) const {
  if (id < window_base_ || id >= next_flow_id_) return kNone;
  return slot_of_[static_cast<std::size_t>(id - window_base_)];
}

std::size_t FlowNetwork::PathHash::operator()(const Path& p) const noexcept {
  const std::uint64_t lo = (std::uint64_t{p[0]} << 32) | p[1];
  const std::uint64_t hi = (std::uint64_t{p[2]} << 32) | p[3];
  std::uint64_t h = lo * 0x9e3779b97f4a7c15ULL;
  h ^= hi + 0x632be59bd9b4e019ULL + (h << 6) + (h >> 2);
  return static_cast<std::size_t>(h ^ (h >> 29));
}

std::uint32_t FlowNetwork::group_for(const Path& path, std::uint32_t hops) {
  const auto [it, fresh] = group_of_.try_emplace(
      path, static_cast<std::uint32_t>(groups_.size()));
  if (fresh) {
    groups_.emplace_back();
    groups_.back().path = path;
    groups_.back().hops = hops;
  }
  ACIC_DCHECK(groups_[it->second].hops == hops,
              "padded path of " << hops << " hops names a "
                                << groups_[it->second].hops << "-hop group");
  return it->second;
}

void FlowNetwork::drop_stale_tags(Group& g) {
  while (flows_[g.tags.front().slot].id != g.tags.front().id) {
    std::pop_heap(g.tags.begin(), g.tags.end(), finishes_later);
    g.tags.pop_back();
  }
  g.due = g.tags.front().finish - g.offset;
}

std::uint32_t FlowNetwork::new_level(double rate, std::uint32_t bottleneck) {
  if (level_count_ == levels_.size()) levels_.emplace_back();
  Level& l = levels_[level_count_];
  l.rate = rate;
  l.clock = 0.0;
  l.due = kInfinity;
  l.bottleneck = bottleneck;
  l.count = 0;
  l.pinned = false;
  l.foreign_load = 0.0;
  l.foreign_rate = 0.0;
  l.members.clear();
  return level_count_++;
}

void FlowNetwork::join(std::uint32_t gi, std::uint32_t li) {
  Group& g = groups_[gi];
  Level& l = levels_[li];
  // An empty level restarts its clock, as a reactivated group does.
  if (l.count == 0) l.clock = 0.0;
  g.level = li;
  g.member_pos = static_cast<std::uint32_t>(l.members.size());
  l.members.push_back(gi);
  l.count += g.count;
  g.offset -= l.clock;
  g.due = g.tags.front().finish - g.offset;
  l.due = std::min(l.due, g.due);
}

void FlowNetwork::leave(std::uint32_t gi) {
  Group& g = groups_[gi];
  Level& l = levels_[g.level];
  const std::uint32_t last = l.members.back();
  l.members[g.member_pos] = last;
  groups_[last].member_pos = g.member_pos;
  l.members.pop_back();
  g.level = kNone;
}

std::uint32_t FlowNetwork::level_to_join(const Group& g) const {
  std::uint32_t found = kNone;
  for (std::uint32_t h = 0; h < g.hops; ++h) {
    const std::uint32_t li = resources_[g.path[h]].level;
    if (li == kNone) continue;
    if (found != kNone) return kNone;
    found = li;
  }
  return found;
}

void FlowNetwork::retire(std::uint32_t slot) {
  Flow& f = flows_[slot];
  Group& g = groups_[f.group];
  Level& l = levels_[g.level];
  for (std::uint32_t h = 0; h < g.hops; ++h) {
    Resource& res = resources_[g.path[h]];
    res.load -= l.rate;
    if (--res.crossing == 0) {
      const std::uint32_t last = in_use_.back();
      in_use_[res.in_use_pos] = last;
      resources_[last].in_use_pos = res.in_use_pos;
      in_use_.pop_back();
    }
  }
  --l.count;
  if (--g.count == 0) {
    g.tags.clear();  // only stale tags can be left
    leave(f.group);
    active_.erase(std::find(active_.begin(), active_.end(), f.group));
  }
  slot_of_[static_cast<std::size_t>(f.id - window_base_)] = kNone;
  f.id = kInvalidFlow;
  --active_count_;
}

void FlowNetwork::free_slot(std::uint32_t slot) {
  callbacks_[slot] = nullptr;
  free_slots_.push_back(slot);
}

void FlowNetwork::advance() {
  const SimTime now = sim_.now();
  const SimTime dt = now - last_update_;
  if (dt > 0.0) {
    for (std::uint32_t li = 0; li < level_count_; ++li) {
      Level& l = levels_[li];
      if (l.count == 0) continue;
      const Bytes moved = l.rate * dt;
      l.clock += moved;
      bytes_delivered_ += moved * static_cast<double>(l.count);
    }
  }
  last_update_ = now;
}

void FlowNetwork::solve(bool repriced) {
  ++solves_;
  if (!repriced) fill();
  ACIC_DCHECK(rates_feasible(), "max-min solve oversubscribed a resource");
  ACIC_DCHECK(rates_max_min_fair(), "max-min solve left a flow unbottlenecked");
}

bool FlowNetwork::reprice(std::uint32_t li, std::uint32_t added) {
  Level& l = levels_[li];
  if (l.bottleneck == kNone || l.pinned) return false;
  if (l.count == 0) return true;  // emptied: nothing left to price
  // The level's flows share what other levels' flows leave of the
  // bottleneck, and stay the fastest on it.
  const double rate =
      std::max(0.0, (resources_[l.bottleneck].capacity - l.foreign_load) /
                        static_cast<double>(l.count));
  if (rate < l.foreign_rate) return false;
  // Move every member's load to the new rate, and check that every
  // resource the level crosses keeps its headroom.  None is another
  // level's bottleneck (the level is not pinned), so no other level's
  // flows lose theirs.  A rising rate only adds load, so a resource that
  // fits after its last update fits after every earlier one; a falling
  // rate only adds load on the path of flows added at the old rate.
  const double delta = rate - l.rate;
  const bool rising = delta > 0.0;
  bool fits = true;
  Bytes due = kInfinity;
  for (std::uint32_t gi : l.members) {
    const Group& g = groups_[gi];
    due = std::min(due, g.due);
    const double added_load = delta * static_cast<double>(g.count);
    for (std::uint32_t h = 0; h < g.hops; ++h) {
      Resource& res = resources_[g.path[h]];
      res.load += added_load;
      fits &= !rising || res.load <= res.capacity * kBottleneckSlack;
    }
  }
  if (!rising && added != kNone) {
    const Group& g = groups_[added];
    for (std::uint32_t h = 0; h < g.hops; ++h) {
      const Resource& res = resources_[g.path[h]];
      fits &= res.load <= res.capacity * kBottleneckSlack;
    }
  }
  l.rate = rate;
  l.due = due;
  return fits;
}

void FlowNetwork::fill() {
  ++full_solves_;
  // Retire the old levels: fold every group's clock into its offset, so
  // the new levels' clocks start at 0.
  for (std::uint32_t gi : active_) {
    Group& g = groups_[gi];
    g.offset = vtime(g);
    g.level = kNone;
  }
  for (std::uint32_t li = 0; li < level_count_; ++li) {
    const std::uint32_t r = levels_[li].bottleneck;
    if (r != kNone) resources_[r].level = kNone;
  }
  level_count_ = 0;
  if (active_.empty()) return;

  // Progressive filling: repeatedly find the bottleneck resource (the one
  // offering the smallest per-flow fair share among its unfixed flows),
  // then visit the unfixed groups in activation order, freezing every one
  // that crosses a resource whose share is within kBottleneckSlack of the
  // bottleneck.  A frozen group's `count` flows all get the bottleneck
  // share, so it deducts count x share from the residual of every resource
  // it crosses and count from their unfixed counts.  It joins the level
  // of the first such resource on its path, which the round creates.
  //
  // Only resources crossed by an active flow take part: seeding walks
  // in_use_, whose crossing counts start_flow()/retire() keep current,
  // and a share is recomputed only when a freeze changes its residual or
  // unfixed count.  A round costs O(resources in use + kMaxPathHops x
  // unfixed groups).
  for (std::uint32_t r : in_use_) {
    Resource& res = resources_[r];
    res.residual = res.capacity;
    res.unfixed = res.crossing;
    res.share = res.residual / static_cast<double>(res.unfixed);
    res.load = 0.0;
  }
  unfixed_.assign(active_.begin(), active_.end());

  std::size_t left = unfixed_.size();
  while (left > 0) {
    double best_share = kInfinity;
    for (std::uint32_t r : in_use_) {
      // NaN shares (no unfixed flow left) never compare less.
      if (resources_[r].share < best_share) best_share = resources_[r].share;
    }
    // Defensive: no resource offers a finite share.
    if (!(best_share < kInfinity)) break;
    best_share = std::max(best_share, 0.0);
    const double limit = best_share * kBottleneckSlack;

    std::size_t kept = 0;
    for (std::size_t k = 0; k < left; ++k) {
      const std::uint32_t gi = unfixed_[k];
      const Group& g = groups_[gi];
      std::uint32_t bottleneck = kNone;
      for (std::uint32_t r : g.path) {
        if (resources_[r].share <= limit) {
          bottleneck = r;
          break;
        }
      }
      if (bottleneck == kNone) {
        unfixed_[kept++] = gi;
        continue;
      }
      if (resources_[bottleneck].level == kNone) {
        resources_[bottleneck].level = new_level(best_share, bottleneck);
      }
      join(gi, resources_[bottleneck].level);
      const double taken = static_cast<double>(g.count) * best_share;
      for (std::uint32_t h = 0; h < g.hops; ++h) {
        Resource& res = resources_[g.path[h]];
        res.residual = std::max(0.0, res.residual - taken);
        res.unfixed -= g.count;
        res.share = res.unfixed > 0
                        ? res.residual / static_cast<double>(res.unfixed)
                        : kNaN;
      }
    }
    if (kept == left) break;  // defensive against FP pathologies
    left = kept;
  }
  // Groups the solver could not place stall in a level of their own.
  if (left > 0) {
    const std::uint32_t li = new_level(0.0, kNone);
    for (std::size_t k = 0; k < left; ++k) join(unfixed_[k], li);
  }

  // Resource loads, and what each re-price must respect: a member
  // crossing another level's bottleneck pins its level and is a foreign
  // flow on that bottleneck.
  for (std::uint32_t gi : active_) {
    const Group& g = groups_[gi];
    Level& l = levels_[g.level];
    const double taken = static_cast<double>(g.count) * l.rate;
    for (std::uint32_t h = 0; h < g.hops; ++h) {
      Resource& res = resources_[g.path[h]];
      res.load += taken;
      if (res.level == kNone || res.level == g.level) continue;
      l.pinned = true;
      Level& other = levels_[res.level];
      other.foreign_load += taken;
      other.foreign_rate = std::max(other.foreign_rate, l.rate);
    }
  }
}

void FlowNetwork::schedule_next_completion() {
  if (completion_event_ != 0) {
    sim_.cancel(completion_event_);
    completion_event_ = 0;
  }
  if (active_count_ == 0) return;
  SimTime min_eta = kInfinity;
  for (std::uint32_t li = 0; li < level_count_; ++li) {
    const Level& l = levels_[li];
    if (l.count > 0 && l.rate > 0.0) {
      min_eta = std::min(min_eta, (l.due - l.clock) / l.rate);
    }
  }
  if (!std::isfinite(min_eta)) return;  // everything stalled (failure)
  // Always land on a representable instant strictly after `now` so the
  // clock provably advances (see kTimeQuantum).
  const SimTime now = sim_.now();
  SimTime target = now + std::max(min_eta, kTimeQuantum);
  if (target <= now) {
    target = std::nextafter(now, kInfinity);
  }
  completion_event_ = sim_.at(target, [this] { handle_completion_event(); });
}

void FlowNetwork::handle_completion_event() {
  completion_event_ = 0;  // firing now
  advance();
  // Within a level every member flow has the same rate, so only a level
  // whose earliest finish is done holds finished flows, only its members
  // whose earliest finish is done do, and those are their heaps' smallest
  // finish tags.
  for (std::uint32_t li = 0; li < level_count_; ++li) {
    const Level& l = levels_[li];
    if (l.count == 0 || !flow_done(l.due - l.clock, l.rate)) continue;
    for (std::uint32_t gi : l.members) {
      Group& g = groups_[gi];
      if (!flow_done(g.due - l.clock, l.rate)) continue;
      while (!g.tags.empty()) {
        const Tag top = g.tags.front();
        const bool live = flows_[top.slot].id == top.id;
        if (live && !flow_done(top.finish - g.offset - l.clock, l.rate)) {
          break;
        }
        std::pop_heap(g.tags.begin(), g.tags.end(), finishes_later);
        g.tags.pop_back();
        if (live) done_.push_back(top);
      }
      if (!g.tags.empty()) g.due = g.tags.front().finish - g.offset;
    }
    touched_.push_back(li);
  }
  // Retire in admission (id) order, crediting each finished flow's
  // residue (sub-epsilon left, or the overshoot of its group's clock) so
  // bytes_delivered() sums to exactly what was injected.
  std::sort(done_.begin(), done_.end(),
            [](const Tag& a, const Tag& b) { return a.id < b.id; });
  for (const Tag& t : done_) {
    bytes_delivered_ += t.finish - vtime(groups_[flows_[t.slot].group]);
    retire(t.slot);
  }
  ACIC_DCHECK(bytes_conserved(),
              "flow byte conservation violated: injected="
                  << bytes_injected_ << " delivered=" << bytes_delivered_
                  << " cancelled=" << bytes_cancelled_);
  bool repriced = true;
  for (std::uint32_t li : touched_) {
    repriced = repriced && reprice(li, kNone);
  }
  touched_.clear();
  solve(repriced);
  schedule_next_completion();
  // The network is consistent again: run the callbacks here, in admission
  // order.  A callback may start or cancel flows, which re-solves and
  // re-arms, but no callback can fire another completion event, so done_
  // holds still while it is walked.  Each slot is freed before its
  // callback runs, and the callback is moved out first, since a flow the
  // callback starts may take the slot or grow callbacks_.
  for (const Tag& t : done_) {
    const std::function<void()> callback = std::move(callbacks_[t.slot]);
    free_slot(t.slot);
    if (callback) callback();
  }
  done_.clear();
}

bool FlowNetwork::bytes_conserved() const {
  Bytes in_flight = 0.0;
  for (const Flow& f : flows_) {
    if (f.id != kInvalidFlow) in_flight += f.finish - vtime(groups_[f.group]);
  }
  const Bytes drift =
      bytes_injected_ - (bytes_delivered_ + bytes_cancelled_ + in_flight);
  // fp noise from rate integration scales with the totals involved.
  const Bytes tolerance =
      1e-6 * std::max(1.0, bytes_injected_);
  return drift >= -tolerance && drift <= tolerance;
}

bool FlowNetwork::rates_feasible() const {
  load_.assign(resources_.size(), 0.0);
  for (std::uint32_t gi : active_) {
    const Group& g = groups_[gi];
    const double rate = levels_[g.level].rate;
    if (rate <= 0.0) continue;
    for (std::uint32_t h = 0; h < g.hops; ++h) {
      load_[g.path[h]] += rate * static_cast<double>(g.count);
    }
  }
  for (std::size_t r = 0; r < resources_.size(); ++r) {
    if (load_[r] > resources_[r].capacity * (1.0 + 1e-9) + 1e-9) return false;
  }
  return true;
}

bool FlowNetwork::rates_max_min_fair() const {
  load_.assign(resources_.size(), 0.0);
  fastest_.assign(resources_.size(), 0.0);
  for (std::uint32_t gi : active_) {
    const Group& g = groups_[gi];
    const double rate = levels_[g.level].rate;
    for (std::uint32_t h = 0; h < g.hops; ++h) {
      load_[g.path[h]] += rate * static_cast<double>(g.count);
      fastest_[g.path[h]] = std::max(fastest_[g.path[h]], rate);
    }
  }
  for (std::uint32_t gi : active_) {
    const Group& g = groups_[gi];
    const double rate = levels_[g.level].rate;
    bool bottlenecked = false;
    for (std::uint32_t h = 0; h < g.hops; ++h) {
      const std::uint32_t r = g.path[h];
      bottlenecked |=
          load_[r] >= resources_[r].capacity * (1.0 - kFairSlack) &&
          fastest_[r] <= rate * (1.0 + kFairSlack);
    }
    if (!bottlenecked) return false;
  }
  return true;
}

}  // namespace acic::sim
