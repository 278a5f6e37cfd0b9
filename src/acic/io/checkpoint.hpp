// Checkpoint/restart reaction to spot-instance preemption (DESIGN.md
// §15).  A CheckpointManager periodically writes the application's
// restart state through the *configured* file system — checkpoint I/O
// competes with application I/O for the same NICs and devices, which is
// exactly the trade-off the checkpoint-cadence studies sweep — and
// reacts to the injector's preemption events:
//
//   notice   -> squeeze in an urgent checkpoint if none is in flight;
//   reclaim  -> count the preemption; if the restart budget is left,
//               acquire a seeded-delay replacement server and replay the
//               work lost since the last durable checkpoint (modelled as
//               an extended suppression window), then restage the
//               checkpoint through the file system; otherwise give up
//               and leave the server dark (the runner's watchdog grades
//               the run `failed`).
//
// Everything is event-driven (scheduled callbacks plus short-lived
// spawned write/restore tasks) — never a forever-coroutine, which would
// deadlock run_until_processes_done().  All randomness comes from one
// seeded Rng, so preempted runs replay bit-identically.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "acic/cloud/cluster.hpp"
#include "acic/cloud/failure.hpp"
#include "acic/common/rng.hpp"
#include "acic/common/units.hpp"
#include "acic/fs/filesystem.hpp"
#include "acic/simcore/task.hpp"

namespace acic::io {

/// Knobs of the checkpoint/restart reaction.  `max_restarts` and the
/// replacement delays also govern preemption recovery when periodic
/// checkpointing itself is off (`enabled == false` or `bytes == 0`):
/// the job then restarts from scratch — everything since t=0 is lost.
struct CheckpointPolicy {
  /// Smallest valid `interval`, seconds.
  static constexpr SimTime kMinInterval = 1.0;

  /// Master switch for periodic checkpoint writes.
  bool enabled = false;
  /// Sim-time seconds between checkpoint attempts (>= kMinInterval).
  SimTime interval = 600.0;
  /// Bytes per checkpoint dump, written through the configured fs.
  Bytes bytes = 0.0;
  /// Replacement acquisitions before the job gives up (`failed`).
  int max_restarts = 10;
  /// Seeded-uniform bounds on the replacement-server acquisition delay.
  SimTime replacement_delay_min = 30.0;
  SimTime replacement_delay_max = 120.0;

  bool valid() const;
};

class CheckpointManager {
 public:
  /// Per-run checkpoint/restart accounting (all zero on a clean run).
  struct Stats {
    std::uint64_t preemptions = 0;         ///< reclaim events observed
    std::uint64_t restarts = 0;            ///< replacement servers acquired
    std::uint64_t checkpoint_writes = 0;   ///< completed dumps
    std::uint64_t urgent_checkpoints = 0;  ///< notice-triggered attempts
    std::uint64_t restores = 0;            ///< checkpoint restage reads
    SimTime lost_sim_time = 0.0;           ///< work replayed after restarts
    Bytes checkpoint_bytes = 0.0;          ///< durably written dump bytes
    bool gave_up = false;                  ///< restart budget exhausted
  };

  CheckpointManager(cloud::ClusterModel& cluster, fs::FileSystem& filesystem,
                    cloud::FailureInjector& injector,
                    const CheckpointPolicy& policy, std::uint64_t seed);

  /// Install the injector hooks and schedule the first periodic tick.
  /// `ranks` is the number of application processes the runner spawns;
  /// ticking stops once all of them finished (via observe_rank), so a
  /// drained job cannot keep spawning checkpoint writes forever.
  void start(int ranks);

  /// Wrapper for the runner's per-rank tasks: runs `inner` to completion,
  /// then notifies the manager that one rank is done.
  sim::Task observe_rank(sim::Task inner);

  /// Cancel every pending tick/restore event (call at job end, before the
  /// injector's own cancel_pending()).  Returns the number cancelled.
  std::size_t finish();

  const Stats& stats() const { return stats_; }

 private:
  bool checkpointing() const {
    return policy_.enabled && policy_.bytes > 0.0;
  }
  void schedule_tick();
  sim::Task write_checkpoint();
  sim::Task restore_read();
  void on_notice(int server, SimTime reclaim_at);
  void on_reclaim(int server);
  void track(sim::EventId event, SimTime at);

  cloud::ClusterModel& cluster_;
  fs::FileSystem& fs_;
  cloud::FailureInjector& injector_;
  CheckpointPolicy policy_;
  Rng rng_;
  Stats stats_;
  /// Completion time of the newest durable checkpoint (0 = none yet:
  /// a restart replays the whole job so far).
  SimTime last_durable_ = 0.0;
  bool write_in_flight_ = false;
  bool app_done_ = false;
  int ranks_running_ = 0;
  /// Scheduled (event, time) pairs, for finish() cancellation.
  std::vector<std::pair<sim::EventId, SimTime>> pending_;
};

}  // namespace acic::io
