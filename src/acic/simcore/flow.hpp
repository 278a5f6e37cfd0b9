// Flow-level bandwidth-sharing model (SimGrid-style).
//
// A Resource is anything with a byte/s capacity: a NIC transmit path, a
// switch backplane slice, a disk.  A Flow is a data transfer that crosses
// an ordered set of resources and is entitled to a max-min fair share of
// each.  Whenever a flow starts, finishes, or a capacity changes, the
// network re-solves the max-min allocation by progressive filling and
// re-schedules the earliest completion on the simulator's event queue.
//
// This is the contention model that makes the cloud substrate behave like
// the paper's EC2 testbed: an NFS server funnels every client through one
// NIC resource; PVFS2 stripes spread flows over several servers; part-time
// I/O servers make application traffic and storage traffic share the same
// instance NIC; EBS volumes hang off the instance NIC instead of a local
// disk controller.
//
// Every simulated result is pinned bit for bit (tests/golden_results.inc),
// so the solver's floating-point trajectory is part of its contract: each
// solve performs the same divisions, subtractions and comparisons, in the
// same order, as a plain progressive-filling loop over all flows in
// admission order.  The bookkeeping around that loop is incremental —
// per-resource crossing counts kept on admit/retire, cached per-resource
// shares, fixed-size inline paths — so a flow start, finish, cancel or
// capacity change costs one pass over the active flows plus one pass per
// filling round, with no allocation.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "acic/common/units.hpp"
#include "acic/simcore/simulator.hpp"
#include "acic/simcore/task.hpp"

namespace acic::sim {

using ResourceId = std::size_t;
using FlowId = std::uint64_t;

inline constexpr FlowId kInvalidFlow = 0;

class FlowNetwork {
 public:
  /// Longest accepted flow path.  The cluster's longest chain, an EBS
  /// write or read across instances, is exactly this long.
  static constexpr std::size_t kMaxPathHops = 4;

  explicit FlowNetwork(Simulator& sim) : sim_(sim) {}
  FlowNetwork(const FlowNetwork&) = delete;
  FlowNetwork& operator=(const FlowNetwork&) = delete;

  /// Register a resource with the given capacity in bytes/second.
  ResourceId add_resource(std::string name, double capacity);

  /// Change a resource's capacity (jitter / failure injection).  Active
  /// flows are re-allocated immediately.
  void set_capacity(ResourceId id, double capacity);

  double capacity(ResourceId id) const;

  /// Begin transferring `bytes` across `path`; `on_complete` fires through
  /// the event queue when the transfer finishes.  Zero-byte transfers
  /// complete immediately.  The path must be non-empty, duplicate-free and
  /// at most kMaxPathHops long.
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

 private:
  /// One active flow.  Trivially copyable, so compacting `flows_` after a
  /// completion moves 48-byte records, not vectors and std::functions.
  /// `path` holds the real hops first; a shorter path repeats its last hop
  /// into the unused entries, which leaves every "does this flow cross a
  /// bottleneck" test unchanged while letting it read all kMaxPathHops
  /// entries without a branch on the length.
  struct Flow {
    Bytes remaining = 0.0;
    double rate = 0.0;
    FlowId id = kInvalidFlow;
    std::uint32_t callback = kNoCallback;  ///< slot in callbacks_
    std::uint32_t hops = 0;
    std::array<std::uint32_t, kMaxPathHops> path{};
  };
  static constexpr std::uint32_t kNoCallback = 0xffffffffu;
  static_assert(std::is_trivially_copyable_v<Flow>);

  struct Resource {
    std::string name;
    double capacity = 0.0;
    /// Active flows whose path crosses this resource (kept on admit and
    /// retire); a resource sits in in_use_ exactly while this is > 0.
    std::uint32_t crossing = 0;
    std::uint32_t in_use_pos = 0;  ///< index in in_use_ while crossing > 0
    // Progressive-filling state, seeded at the start of every solve for
    // the resources in use.  `share` caches residual / unfixed and is NaN
    // once no unfixed flow crosses the resource, so every comparison
    // against it is false.
    std::uint32_t unfixed = 0;
    double residual = 0.0;
    double share = 0.0;
  };

  /// Integrate progress of all flows up to sim_.now().
  void advance();
  /// Re-solve max-min fair sharing (progressive filling) and record the
  /// earliest completion time in next_eta_.
  void recompute_rates();
  /// Count `f` against (or release it from) every resource it crosses.
  void admit(const Flow& f);
  void retire(const Flow& f);
  /// Byte conservation: injected == delivered + cancelled + in-flight
  /// (within fp noise).  Backs an ACIC_DCHECK after every completion
  /// sweep.
  bool bytes_conserved() const;
  /// Allocation feasibility: no resource carries more than its capacity.
  bool rates_feasible() const;
  /// (Re)arm the single pending completion event.
  void schedule_next_completion();
  void handle_completion_event(std::uint64_t generation);
  /// Index in flows_ of the active flow `id`, or flows_.size().
  std::size_t find_flow(FlowId id) const;

  Simulator& sim_;
  std::vector<Resource> resources_;
  /// Resources crossed by at least one active flow, in no particular
  /// order (the bottleneck search takes a minimum over them).
  std::vector<std::uint32_t> in_use_;
  /// Active flows in admission order, which is id order.  Both the
  /// freeze order of a filling round and the order of completion
  /// callbacks follow it, so removal always preserves it.
  std::vector<Flow> flows_;
  /// on_complete callbacks of active flows, by Flow::callback slot.
  std::vector<std::function<void()>> callbacks_;
  std::vector<std::uint32_t> free_callbacks_;
  /// Per-solve scratch, kept to avoid allocating: indices of the flows a
  /// filling round left unfixed, and the flows one completion sweep
  /// retires.
  std::vector<std::uint32_t> unfixed_;
  std::vector<Flow> done_;
  /// Earliest remaining / rate over flows with a positive rate, as of the
  /// last solve (infinity when every flow is stalled).
  SimTime next_eta_ = std::numeric_limits<SimTime>::infinity();
  SimTime last_update_ = 0.0;
  std::uint64_t generation_ = 0;
  FlowId next_flow_id_ = 1;
  Bytes bytes_delivered_ = 0.0;
  Bytes bytes_injected_ = 0.0;
  Bytes bytes_cancelled_ = 0.0;
};

}  // namespace acic::sim
