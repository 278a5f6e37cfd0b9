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
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
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
  SimTime last_update_ = 0.0;
  std::uint64_t generation_ = 0;
  FlowId next_flow_id_ = 1;
  Bytes bytes_delivered_ = 0.0;
  Bytes bytes_injected_ = 0.0;
  Bytes bytes_cancelled_ = 0.0;
};

}  // namespace acic::sim
