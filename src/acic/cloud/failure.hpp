// Fault injection (paper §5.6 observation 5: lost connections to I/O
// servers happen on real cloud platforms).
//
// The vocabulary goes beyond the binary outage:
//   * outage      — capacity zeroed for a window; in-flight flows stall
//                   and resume on restore (a hung connection, not an
//                   error, matching the paper's observed behaviour).
//   * brownout    — capacity degraded to a fraction for a window
//                   (multi-tenant interference, throttled EBS volume).
//   * straggler   — a slow-disk server: its *device* resources run at a
//                   fraction for a (typically long) window.
//   * permanent loss — a server never comes back; only clients with
//                   deadlines + retries make progress past it.
//   * preemption  — a spot-instance reclamation: a seeded notice event
//                   fires first (checkpoint managers react to it), then
//                   the whole server — NIC *and* device — goes dark
//                   until someone acquires a replacement and calls
//                   restore_server().  Without a restore it behaves
//                   like a whole-server permanent loss.
// Correlated outages hit every server in one window (rack/AZ events).
//
// All schedules are driven by an explicitly seeded Rng, so chaos runs are
// reproducible bit-for-bit.  Effective capacity is always recomputed from
// the resource's *original* capacity (never incrementally), so arbitrarily
// overlapped faults restore the exact pre-fault value — including the
// jittered capacities ClusterModel sets up at construction.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "acic/cloud/cluster.hpp"
#include "acic/common/rng.hpp"
#include "acic/common/units.hpp"

namespace acic::cloud {

enum class FaultKind {
  kOutage,         ///< capacity -> 0 for the window
  kBrownout,       ///< capacity -> original * fraction for the window
  kStraggler,      ///< device capacity -> original * fraction (slow disk)
  kPermanentLoss,  ///< capacity -> 0, never restored
  kPreemption,     ///< notice, then whole-server loss until restore_server()
};

const char* to_string(FaultKind kind);

/// One scheduled fault.
struct FaultSpec {
  FaultKind kind = FaultKind::kOutage;
  int server = 0;
  SimTime at = 0.0;
  /// Window length; ignored for kPermanentLoss.
  SimTime duration = 10.0;
  /// Remaining capacity fraction for kBrownout / kStraggler.
  double fraction = 0.2;
  /// Hit the NIC (true) or the storage device (false).  Stragglers are
  /// always device-side regardless of this flag; preemptions always take
  /// the whole server (NIC and device).
  bool hit_nic = false;
  /// kPreemption only: seconds between the reclamation notice (`at`) and
  /// the actual loss at `at + notice`.
  SimTime notice = 120.0;
};

/// Rates and shapes for seeded random fault schedules.  All rates are
/// mean events/hour (exponential inter-arrival); `any()` is false for the
/// all-zero default, which keeps reliable runs injector-free.
struct FaultModel {
  double outages_per_hour = 0.0;
  double brownouts_per_hour = 0.0;
  double brownout_fraction = 0.2;
  double stragglers_per_hour = 0.0;
  double straggler_factor = 0.35;
  /// Probability that a scheduled outage is correlated (hits every
  /// server at once) instead of a single server.
  double correlated_outage_probability = 0.0;
  /// Probability that a scheduled outage is a permanent server loss.
  double permanent_loss_probability = 0.0;
  SimTime min_duration = 5.0;
  SimTime max_duration = 30.0;
  /// Spot-instance reclamations per *server*-hour (each I/O server is an
  /// independent spot instance, so a config's exposure scales with its
  /// server count).
  double preemptions_per_hour = 0.0;
  /// Seconds of warning between a reclamation notice and the loss.
  SimTime preemption_notice = 120.0;

  bool any() const {
    return outages_per_hour > 0.0 || brownouts_per_hour > 0.0 ||
           stragglers_per_hour > 0.0 || preemptions_per_hour > 0.0;
  }
  bool valid() const;
};

/// Observer seams for kPreemption faults.  `on_notice` fires at the
/// reclamation notice (with the scheduled loss time), `on_reclaim` right
/// after the server's resources were zeroed — the checkpoint/restart
/// machinery hangs off these.
struct PreemptionHooks {
  std::function<void(int server, SimTime reclaim_at)> on_notice;
  std::function<void(int server)> on_reclaim;
};

class FailureInjector {
 public:
  explicit FailureInjector(ClusterModel& cluster) : cluster_(cluster) {}
  ~FailureInjector();

  /// Schedule one fault.
  void inject(const FaultSpec& spec);

  /// Correlated outage: every I/O server loses the chosen side for one
  /// shared window (a rack/AZ-level event).
  void inject_correlated(SimTime at, SimTime duration, bool hit_nic = false);

  /// Schedule a seeded random fault mix until `horizon` following
  /// `model`'s rates.  Deterministic for a given Rng state.
  void inject_random(Rng& rng, const FaultModel& model, SimTime horizon);

  int scheduled_outages() const { return scheduled_; }

  /// Install the preemption observers (replaces any previous hooks).
  void set_preemption_hooks(PreemptionHooks hooks);

  /// Bring a preempted server's replacement online: undoes one reclaim
  /// on each of the server's resources and re-derives their capacities
  /// (stalled flows resume).  Harmless when the server is not currently
  /// preempted.
  void restore_server(int server);

  /// Cancel every pending (unfired) suppress/degrade/restore event and
  /// force still-faulted resources back to their exact original
  /// capacities.  Call when the job finishes before the fault schedule
  /// runs out, so late callbacks neither inflate the event count nor
  /// leak a suppressed resource into a caller's post-run bookkeeping.
  /// Returns the number of events cancelled.
  std::size_t cancel_pending();

 private:
  /// Per-resource fault bookkeeping.  `original` is captured when the
  /// first fault arrives and is the single source of truth: the applied
  /// capacity is always derived from it, so the final restore lands on
  /// the exact original value no matter how faults overlapped.
  struct ResourceState {
    double original = 0.0;
    int outages = 0;                   ///< active zero-capacity windows
    std::vector<double> degradations;  ///< active brownout/straggler fractions
    bool permanent = false;
    /// Active reclamations (a counter, not a flag: part-time servers can
    /// share a NIC, so two preempted servers may overlap on a resource).
    int preempted = 0;
  };

  void begin_outage(sim::ResourceId id);
  void end_outage(sim::ResourceId id);
  void begin_degradation(sim::ResourceId id, double fraction);
  void end_degradation(sim::ResourceId id, double fraction);
  void mark_permanent(sim::ResourceId id);
  void reclaim_server(int server);
  void apply(sim::ResourceId id);
  ResourceState& state_of(sim::ResourceId id);
  std::vector<sim::ResourceId> resources_for(const FaultSpec& spec) const;
  std::vector<sim::ResourceId> server_resources(int server) const;
  void track(sim::EventId event, SimTime at);

  ClusterModel& cluster_;
  PreemptionHooks hooks_;
  int scheduled_ = 0;
  std::map<sim::ResourceId, ResourceState> active_;
  /// Every scheduled (event, time) pair, for cancel_pending().
  std::vector<std::pair<sim::EventId, SimTime>> pending_;
  std::size_t faults_injected_ = 0;   ///< rolled into obs at destruction
  std::size_t events_cancelled_ = 0;  ///< ditto
};

}  // namespace acic::cloud
