// Flow-level bandwidth-sharing model (SimGrid-style).
//
// A Resource is anything with a byte/s capacity: a NIC transmit path, a
// switch backplane slice, a disk.  A Flow is a data transfer that crosses
// an ordered set of resources and is entitled to a max-min fair share of
// each.  Whenever a flow starts, finishes, or a capacity changes, the
// network re-solves the max-min allocation and re-schedules the earliest
// completion on the simulator's event queue.
//
// This is the contention model that makes the cloud substrate behave like
// the paper's EC2 testbed: an NFS server funnels every client through one
// NIC resource; PVFS2 stripes spread flows over several servers; part-time
// I/O servers make application traffic and storage traffic share the same
// instance NIC; EBS volumes hang off the instance NIC instead of a local
// disk controller.
//
// Flows that cross the same resources always receive the same max-min
// rate, so the solver works on path groups rather than flows: one group
// per distinct path, weighted by its flow count, keeping its members'
// finish tags (bytes received at start + bytes) in a min-heap.  Groups
// that share a bottleneck share a rate too, so groups are priced in
// bottleneck levels: the groups one round of progressive filling froze at
// one bottleneck resource.  A level runs one processor-sharing virtual
// clock and a group's bytes received are its offset into that clock, so
// advancing time and finding the next completion cost O(levels), and a
// completion visits only the levels and groups that are due.
//
// An admit, retire or cancel re-prices only its group's level: the new
// rate is the bottleneck's capacity, less what flows of other levels take
// from it, over the level's flows.  The re-price stands only under a
// local certificate that it leaves the allocation max-min fair: no member
// crosses another level's bottleneck, no other level's flow on the
// bottleneck is faster than the new rate, and every resource the level
// crosses keeps its headroom.  Otherwise, and on every capacity change,
// progressive filling re-solves the whole network and rebuilds the
// levels.  No solve allocates once the network's tables have grown.
//
// The network keeps at most one pending completion event: a re-solve
// cancels it and arms the new one.  When it fires it retires the finished
// flows, re-solves and re-arms, and only then runs their callbacks, in
// admission order, inside the same event.  A callback may start or cancel
// flows; it sees a consistent network.
//
// The result is the max-min allocation up to floating-point rounding: a
// group deducts `count x share` at once where a per-flow loop deducts
// `share` count times, a re-price divides a residual where filling
// subtracts, and bytes left are a difference of clocks.
// tests/flow_differential_test.cpp holds the solver to a stated
// tolerance against a plain per-flow progressive-filling loop (rates
// within 1e-9 relative, the same completion order wherever the
// reference's completion times differ by more than that, byte
// conservation within 1e-9 of the bytes injected) and checks the
// max-min optimality certificate of every compared state.  Simulated
// results are pinned in tests/golden_results.inc under the run store's
// simulation epoch (exec::RunStore::kSimEpoch): a change that moves them
// bumps it.
#pragma once

#include <array>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "acic/common/check.hpp"
#include "acic/common/units.hpp"
#include "acic/simcore/simulator.hpp"
#include "acic/simcore/task.hpp"

namespace acic::sim {

using ResourceId = std::size_t;
using FlowId = std::uint64_t;

inline constexpr FlowId kInvalidFlow = 0;

/// Longest accepted flow path.  The cluster's longest chain, an EBS write
/// or read across instances, is exactly this long.
inline constexpr std::size_t kMaxPathHops = 4;

/// The ordered resources a flow crosses, held inline: building, copying
/// and passing a path never allocates.  Adding a hop past kMaxPathHops
/// throws, so every path that exists is short enough for the solver.
class FlowPath {
 public:
  FlowPath() = default;
  FlowPath(std::initializer_list<ResourceId> hops) {
    require_room(hops.size());
    for (ResourceId r : hops) hops_[size_++] = r;
  }

  void push_back(ResourceId r) {
    require_room(size_ + 1);
    hops_[size_++] = r;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  ResourceId operator[](std::size_t i) const { return hops_[i]; }
  const ResourceId* begin() const { return hops_.data(); }
  const ResourceId* end() const { return hops_.data() + size_; }

 private:
  /// The one hop-limit check.
  static void require_room(std::size_t hops) {
    ACIC_EXPECTS(hops <= kMaxPathHops,
                 "flow path of " << hops << " hops exceeds the "
                                 << kMaxPathHops << "-hop limit");
  }

  std::array<ResourceId, kMaxPathHops> hops_{};
  std::size_t size_ = 0;
};
static_assert(std::is_trivially_copyable_v<FlowPath>);

class FlowNetwork {
 public:
  /// Awaitable of transfer(): suspends the calling process until the
  /// flow completes.  It starts the flow when the caller suspends and
  /// resumes the caller from the completion callback, so a transfer needs
  /// no coroutine frame, shared state or heap-stored callback.
  class [[nodiscard]] Transfer {
   public:
    /// Even a zero-byte flow suspends: it completes through one event at
    /// the current time, like any other.
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const {
      net_->admit(path_, bytes_, [h] { h.resume(); });
    }
    void await_resume() const noexcept {}

   private:
    friend class FlowNetwork;
    Transfer(FlowNetwork* net, const FlowPath& path, Bytes bytes)
        : net_(net), path_(path), bytes_(bytes) {}

    FlowNetwork* net_;
    FlowPath path_;
    Bytes bytes_;
  };
  // Awaiter temporaries must be trivially destructible (see task.hpp).
  static_assert(std::is_trivially_destructible_v<Transfer>);

  /// Awaitable of transfer_within(): `co_await` yields true when the flow
  /// completed and false when the deadline cut it off.  Its state lives
  /// in the awaiter, in the caller's frame, and both the flow's callback
  /// and the timer point at it: whichever fires first disarms the other,
  /// and no completion callback outlives the completion event, so
  /// neither can reach a frame that has moved on.
  class [[nodiscard]] TimedTransfer {
   public:
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    bool await_resume() const noexcept { return completed_; }

   private:
    friend class FlowNetwork;
    TimedTransfer(FlowNetwork* net, const FlowPath& path, Bytes bytes,
                  SimTime deadline)
        : net_(net), path_(path), bytes_(bytes), deadline_(deadline) {}
    void flow_done();
    void timed_out();

    FlowNetwork* net_;
    FlowPath path_;
    Bytes bytes_;
    SimTime deadline_;
    FlowId flow_ = kInvalidFlow;
    EventId timer_ = 0;
    std::coroutine_handle<> waiter_;
    bool completed_ = false;
  };
  static_assert(std::is_trivially_destructible_v<TimedTransfer>);

  explicit FlowNetwork(Simulator& sim) : sim_(sim) {}
  /// Reports the network's solve counts to obs::MetricsRegistry::global()
  /// (`sim.flow.solves`, `sim.flow.full_solves`), one add each.
  ~FlowNetwork();
  FlowNetwork(const FlowNetwork&) = delete;
  FlowNetwork& operator=(const FlowNetwork&) = delete;

  /// Register a resource with the given capacity in bytes/second, which
  /// must be finite and non-negative.
  ResourceId add_resource(std::string name, double capacity);

  /// Change a resource's capacity (jitter / failure injection) to a
  /// finite, non-negative value.  Active flows are re-allocated
  /// immediately.
  void set_capacity(ResourceId id, double capacity);

  double capacity(ResourceId id) const;

  /// Begin transferring `bytes` across `path`; `on_complete` runs inside
  /// the completion event that finishes the transfer, after the network
  /// has re-solved, in admission order among the flows finishing at that
  /// instant.  A zero-byte transfer completes through one event at the
  /// current time instead.  The path must be non-empty and duplicate-free
  /// and name known resources.
  FlowId start_flow(const FlowPath& path, Bytes bytes,
                    std::function<void()> on_complete);

  /// `co_await net.transfer(path, bytes)` suspends the calling process
  /// until the flow completes.  The path and size are checked here, before
  /// the caller suspends.
  Transfer transfer(const FlowPath& path, Bytes bytes) {
    check_flow(path, bytes);
    return Transfer(this, path, bytes);
  }

  /// Deadline-bounded transfer: `co_await net.transfer_within(path,
  /// bytes, timeout)` suspends until the flow completes or `timeout`
  /// seconds elapse, whichever comes first.  On completion the timer is
  /// cancelled and the await yields true; on timeout the flow is
  /// cancelled (its undelivered bytes are abandoned, see
  /// `bytes_cancelled()`) and it yields false.  A flow that finishes on
  /// the deadline's own instant times out.  The client observing a
  /// timed-out request maps to the paper's "lost connection to an I/O
  /// server": the payload is gone and must be re-sent.
  TimedTransfer transfer_within(const FlowPath& path, Bytes bytes,
                                SimTime timeout) {
    ACIC_EXPECTS(timeout > 0.0, "non-positive transfer timeout " << timeout);
    check_flow(path, bytes);
    return TimedTransfer(this, path, bytes, sim_.now() + timeout);
  }

  /// Abort an active flow: its remaining bytes are dropped (credited to
  /// `bytes_cancelled()`), rates are re-solved, and its on_complete never
  /// fires.  Harmless no-op if the flow already finished.
  void cancel_flow(FlowId id);

  std::size_t active_flows() const { return active_count_; }

  /// Current allocated rate of an active flow, which is its path group's
  /// rate (0 if unknown/finished).
  double flow_rate(FlowId id) const;

  /// Cumulative bytes delivered across all completed flows.
  Bytes bytes_delivered() const { return bytes_delivered_; }

  /// Cumulative bytes injected by start_flow()/transfer() since creation.
  Bytes bytes_injected() const { return bytes_injected_; }

  /// Cumulative undelivered bytes abandoned by cancel_flow().
  Bytes bytes_cancelled() const { return bytes_cancelled_; }

 private:
  /// start_flow()'s preconditions on a path and a size.
  void check_flow(const FlowPath& path, Bytes bytes) const;
  /// Start a checked flow (start_flow() after check_flow()).
  FlowId admit(const FlowPath& path, Bytes bytes,
               std::function<void()> on_complete);

  /// A path padded to kMaxPathHops entries: the real hops first, then the
  /// last hop repeated, which leaves every "does this path cross a
  /// bottleneck" test unchanged while letting it read all entries without
  /// a branch on the length.  Paths are duplicate-free, so the padded
  /// array also determines the hop count.
  using Path = std::array<std::uint32_t, kMaxPathHops>;
  struct PathHash {
    std::size_t operator()(const Path& p) const noexcept;
  };

  /// No slot, level or resource.
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// One active flow, in the flows_ slot arena (id kInvalidFlow while the
  /// slot is free).  Its bytes left are `finish` less its group's vtime.
  struct Flow {
    Bytes finish = 0.0;
    FlowId id = kInvalidFlow;
    std::uint32_t group = 0;
  };

  /// A finish tag in a group's heap.  A cancelled flow's tag stays behind
  /// as stale (its slot no longer holds `id`) until it reaches the top,
  /// where it is dropped, or the group empties: an active group's top tag
  /// is always live.
  struct Tag {
    Bytes finish = 0.0;
    FlowId id = kInvalidFlow;
    std::uint32_t slot = kNone;
  };
  /// Heap order: std::push_heap/pop_heap keep the tag that finishes first
  /// (the lower id on a tie) on top.
  static bool finishes_later(const Tag& a, const Tag& b) {
    return a.finish != b.finish ? a.finish > b.finish : a.id > b.id;
  }

  /// All flows over one path.  Created on first use and kept for the
  /// network's lifetime; active while `count` > 0.
  struct Group {
    Path path{};
    std::uint32_t hops = 0;
    std::uint32_t count = 0;  ///< active flows
    /// The level pricing the group (kNone until its first solve) and the
    /// group's index in that level's members.
    std::uint32_t level = kNone;
    std::uint32_t member_pos = 0;
    /// The group's vtime, the bytes each member has received since the
    /// group became active, is its level's clock plus `offset` (just
    /// `offset` outside any level).  The vtime restarts at 0 on
    /// reactivation, and a level's clock when the level is built or
    /// empties, so `finish - vtime` stays precise.
    Bytes offset = 0.0;
    /// The level clock at which the top tag finishes: its finish less
    /// `offset`.
    Bytes due = 0.0;
    std::vector<Tag> tags;  ///< min-heap on (finish, id)
  };

  /// The groups one round of progressive filling froze at one bottleneck
  /// resource, sharing a rate and a processor-sharing clock.  Built by the
  /// full solve; until the next one only its rate, clock and members
  /// change.  A level
  /// whose last flow leaves stays behind until the next full solve, so a
  /// group crossing its bottleneck can take it up again.
  struct Level {
    double rate = 0.0;
    /// Bytes each member flow has received since the level was built or
    /// last emptied.
    Bytes clock = 0.0;
    Bytes due = 0.0;  ///< the earliest member `due`
    /// The resource every member crosses and is frozen at (kNone for the
    /// groups filling could not place, which only a full solve prices).
    std::uint32_t bottleneck = kNone;
    std::uint32_t count = 0;  ///< the members' active flows
    /// A member crosses another level's bottleneck, so a change of this
    /// level's rate would move that level's: only a full solve prices it.
    bool pinned = false;
    /// Flows of other levels crossing the bottleneck: the load they put on
    /// it and the fastest one's rate.  Every such flow's level is pinned,
    /// so both hold until the next full solve.
    double foreign_load = 0.0;
    double foreign_rate = 0.0;
    std::vector<std::uint32_t> members;  ///< group indices, no order
  };

  struct Resource {
    std::string name;
    double capacity = 0.0;
    /// Active flows whose path crosses this resource (kept on admit and
    /// retire); a resource sits in in_use_ exactly while this is > 0.
    std::uint32_t crossing = 0;
    std::uint32_t in_use_pos = 0;  ///< index in in_use_ while crossing > 0
    /// The level this resource is the bottleneck of, or kNone.
    std::uint32_t level = kNone;
    /// Sum of rate x flows over the active groups crossing it, as of the
    /// last solve: set by the full solve and kept by re-prices, admits
    /// and retires.
    double load = 0.0;
    // Progressive-filling state, seeded at the start of every full solve
    // for the resources in use.  `share` caches residual / unfixed and is
    // NaN once no unfixed flow crosses the resource, so every comparison
    // against it is false.
    std::uint32_t unfixed = 0;
    double residual = 0.0;
    double share = 0.0;
  };

  /// A group's vtime (see Group::offset).
  Bytes vtime(const Group& g) const {
    return g.level == kNone ? g.offset : levels_[g.level].clock + g.offset;
  }
  /// Integrate every level's clock up to sim_.now().
  void advance();
  /// Finish a solve: count it and, unless the change was `repriced`
  /// locally, run the full solve.
  void solve(bool repriced);
  /// Re-price level `li` after its flows changed, the loads of flows
  /// added to group `added` (or kNone) and of retired ones already booked
  /// at its old rate.  False when the certificate fails; the level is
  /// then left for the full solve.
  bool reprice(std::uint32_t li, std::uint32_t added);
  /// The full solve: progressive filling over groups, which rebuilds the
  /// levels, their clocks and the resource loads.
  void fill();
  /// A fresh level from levels_'s spare storage.
  std::uint32_t new_level(double rate, std::uint32_t bottleneck);
  /// Enter active group `gi`, whose vtime is its offset, into level `li`.
  void join(std::uint32_t gi, std::uint32_t li);
  /// Take active group `gi` out of its level's members.
  void leave(std::uint32_t gi);
  /// The one level whose bottleneck `g`'s path crosses, or kNone when it
  /// crosses none or several.
  std::uint32_t level_to_join(const Group& g) const;
  /// The group of `path`, created on first use.
  std::uint32_t group_for(const Path& path, std::uint32_t hops);
  /// Drop stale tags off the top of an active group's heap and refresh its
  /// `due`.
  void drop_stale_tags(Group& g);
  /// Release the active flow in `slot` from its group, its level, the
  /// resources it crosses and the id window (the slot and its callback
  /// stay for the caller to free).
  void retire(std::uint32_t slot);
  /// Drop a retired slot's callback and return the slot for reuse.
  void free_slot(std::uint32_t slot);
  /// Enter the slot of the id just issued (kNone for a flow that never
  /// becomes active) into the id window.
  void record_slot(std::uint32_t slot);
  /// Slot of the active flow `id`, or kNone.
  std::uint32_t slot_of(FlowId id) const;
  /// Byte conservation: injected == delivered + cancelled + in-flight
  /// (within fp noise).  Backs an ACIC_DCHECK after every completion
  /// sweep.
  bool bytes_conserved() const;
  /// Allocation feasibility: no resource carries more than its capacity.
  bool rates_feasible() const;
  /// Max-min optimality certificate, from the definition rather than the
  /// algorithm: every active group crosses a resource loaded to within
  /// 1e-9 (relative) of its capacity on which no group's rate exceeds its
  /// own by more than 1e-9 (relative).  Backs an ACIC_DCHECK after every
  /// solve.
  bool rates_max_min_fair() const;
  /// Re-arm the single pending completion event: cancel the one armed by
  /// the last solve and schedule the next completion, if any.
  void schedule_next_completion();
  void handle_completion_event();

  Simulator& sim_;
  std::vector<Resource> resources_;
  /// Resources crossed by at least one active flow, in no particular
  /// order (the bottleneck search takes a minimum over them).
  std::vector<std::uint32_t> in_use_;
  std::vector<Group> groups_;
  std::unordered_map<Path, std::uint32_t, PathHash> group_of_;
  /// Groups with at least one active flow, in activation order: the
  /// freeze order of a filling round.
  std::vector<std::uint32_t> active_;
  /// The levels of the last full solve are levels_[0, level_count_); the
  /// rest is spare storage kept for the next one.
  std::vector<Level> levels_;
  std::uint32_t level_count_ = 0;
  /// Flow slot arena and the on_complete callbacks, by slot.
  std::vector<Flow> flows_;
  std::vector<std::function<void()>> callbacks_;
  std::vector<std::uint32_t> free_slots_;
  /// Id -> slot window: ids are issued densely, so slot_of_[id -
  /// window_base_] resolves one (kNone once it finished, was cancelled
  /// or never entered); the dead prefix is trimmed as ids are issued.
  std::vector<std::uint32_t> slot_of_;
  FlowId window_base_ = 1;
  std::size_t window_head_ = 0;
  /// Work buffers, kept to avoid allocating: the groups a filling round
  /// left unfixed, the levels and tags one completion sweep touches and
  /// retires, and the per-resource sums the DCHECK-only checks take.
  std::vector<std::uint32_t> unfixed_;
  std::vector<std::uint32_t> touched_;
  std::vector<Tag> done_;
  mutable std::vector<double> load_;
  mutable std::vector<double> fastest_;
  std::size_t active_count_ = 0;
  SimTime last_update_ = 0.0;
  /// The pending completion event (0 when none is armed).
  EventId completion_event_ = 0;
  FlowId next_flow_id_ = 1;
  Bytes bytes_delivered_ = 0.0;
  Bytes bytes_injected_ = 0.0;
  Bytes bytes_cancelled_ = 0.0;
  /// Solves, and those of them that ran progressive filling.
  std::uint64_t solves_ = 0;
  std::uint64_t full_solves_ = 0;
};

}  // namespace acic::sim
