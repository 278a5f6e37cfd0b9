#include "acic/io/runner.hpp"

#include "acic/cloud/cluster.hpp"
#include "acic/cloud/failure.hpp"
#include "acic/common/error.hpp"
#include "acic/io/middleware.hpp"
#include "acic/mpi/runtime.hpp"
#include "acic/obs/metrics.hpp"
#include "acic/simcore/simulator.hpp"

namespace acic::io {

const char* to_string(RunOutcome outcome) {
  switch (outcome) {
    case RunOutcome::kOk:
      return "ok";
    case RunOutcome::kDegraded:
      return "degraded";
    case RunOutcome::kFailed:
      return "failed";
  }
  return "unknown";
}

RunResult run_workload(const Workload& workload,
                       const cloud::IoConfig& config,
                       const RunOptions& options) {
  Workload w = workload;
  w.normalize();
  ACIC_CHECK_MSG(w.valid(), "invalid workload " << w.name);
  ACIC_CHECK_MSG(config.valid(), "invalid IoConfig " << config.label());
  // Checked here, not only by inject_random(): out-of-range fields that no
  // rate arms would otherwise run silently.
  ACIC_CHECK_MSG(options.fault_model.valid(), "invalid fault model");
  ACIC_CHECK_MSG(options.checkpoint.valid(), "invalid checkpoint policy");

  sim::Simulator simulator;
  cloud::ClusterModel::Options copts;
  copts.num_processes = w.num_processes;
  copts.config = config;
  copts.jitter_sigma = options.jitter_sigma;
  copts.seed = options.seed;
  cloud::ClusterModel cluster(simulator, copts);

  mpi::Runtime mpi(cluster);
  auto filesystem = fs::make_filesystem(cluster, options.tuning);
  ParallelIo middleware(cluster, mpi, *filesystem, options.tracer);

  const cloud::FaultModel& faults = options.fault_model;

  cloud::FailureInjector injector(cluster);
  if (faults.any()) {
    // Schedule faults over a generous horizon; faults beyond the job's
    // actual end are cancelled below, not fired.
    Rng rng(options.seed ^ 0xfa17u);
    injector.inject_random(rng, faults, /*horizon=*/24.0 * kHour);
  }

  // The checkpoint/restart manager exists only when it has work to do
  // (periodic dumps armed, or preemptions that need recovery); clean
  // runs keep the exact legacy spawn structure, so their event counts
  // and cached results are untouched.
  std::optional<CheckpointManager> checkpoints;
  if (options.checkpoint.enabled || faults.preemptions_per_hour > 0.0) {
    checkpoints.emplace(cluster, *filesystem, injector, options.checkpoint,
                        options.seed);
    checkpoints->start(w.num_processes);
  }

  for (int rank = 0; rank < w.num_processes; ++rank) {
    if (checkpoints) {
      simulator.spawn(checkpoints->observe_rank(middleware.run_rank(rank, w)));
    } else {
      simulator.spawn(middleware.run_rank(rank, w));
    }
  }

  RunResult result;
  // Faulted runs can legitimately stall (e.g. permanent server loss with
  // retries disabled), so they run under a watchdog and grade the
  // outcome; clean runs keep the strict legacy contract, where a stall
  // is a simulator bug and throws.
  SimTime watchdog = options.watchdog_sim_time;
  if (watchdog <= 0.0 && faults.any()) watchdog = 24.0 * kHour;
  {
    // Wall-clock of the simulation itself; setup and the metrics roll-up
    // below stay outside.
    obs::Timer wall_timer(obs::MetricsRegistry::global().histogram(
        "io.sim_wall_us", obs::latency_buckets_us()));
    if (watchdog > 0.0) {
      if (!simulator.run_until_processes_done_or(watchdog)) {
        result.outcome = RunOutcome::kFailed;
      }
    } else {
      simulator.run_until_processes_done();
    }
  }

  // Wind down the fault machinery in dependency order: the checkpoint
  // manager's ticks/restores first (they reference the injector), then
  // the injector's own unfired events — both *before* reading the event
  // count, so a job that beats its outage windows is not billed for
  // their restores.
  if (checkpoints) {
    checkpoints->finish();
    const CheckpointManager::Stats& cstats = checkpoints->stats();
    result.preemptions = cstats.preemptions;
    result.restarts = cstats.restarts;
    result.lost_sim_time = cstats.lost_sim_time;
    result.checkpoint_bytes = cstats.checkpoint_bytes;
    if (cstats.gave_up) result.outcome = RunOutcome::kFailed;
  }
  result.fault_events_cancelled = injector.cancel_pending();

  result.total_time = simulator.now();
  result.fs_requests = filesystem->requests_served();
  // Spot billing wins over the detailed EBS bill; without either the
  // run is billed by the paper's Eq. (1).
  if (options.spot_pricing) {
    result.cost = options.spot_pricing->run_cost(cluster, result.total_time,
                                                 result.restarts);
  } else if (options.detailed_pricing) {
    result.cost = options.detailed_pricing->run_cost(
        cluster, result.total_time, result.fs_requests);
  } else {
    result.cost = cluster.cost_of(result.total_time);
  }
  result.io_time = middleware.io_time();
  result.num_instances = cluster.num_instances();
  result.fs_bytes = filesystem->bytes_moved();
  result.sim_events = simulator.events_executed();

  const fs::FaultStats& fstats = filesystem->fault_stats();
  result.retries = fstats.retries;
  result.timeouts = fstats.timeouts;
  result.failed_requests = fstats.failed_requests;
  result.stalled_time = fstats.stalled_time;
  if (result.outcome == RunOutcome::kOk &&
      (result.timeouts > 0 || result.failed_requests > 0 ||
       result.restarts > 0)) {
    result.outcome = RunOutcome::kDegraded;
  }

  // Per-run observability roll-up: one registry touch per simulation (the
  // per-event/per-request hot paths stay uninstrumented on purpose).
  auto& registry = obs::MetricsRegistry::global();
  const std::string fs_prefix = std::string("fs.") + filesystem->name();
  registry.counter(fs_prefix + ".bytes_moved").add(result.fs_bytes);
  registry.counter(fs_prefix + ".requests")
      .add(static_cast<double>(result.fs_requests));
  registry.counter("io.runs").inc();
  registry.counter("io.sim_events")
      .add(static_cast<double>(result.sim_events));
  registry
      .histogram("io.run_seconds", obs::duration_buckets_s())
      .observe(result.total_time);
  if (result.retries > 0) {
    registry.counter("io.retries").add(static_cast<double>(result.retries));
  }
  if (result.timeouts > 0) {
    registry.counter("io.timeouts")
        .add(static_cast<double>(result.timeouts));
  }
  if (result.failed_requests > 0) {
    registry.counter("io.failed_requests")
        .add(static_cast<double>(result.failed_requests));
  }
  if (result.fault_events_cancelled > 0) {
    registry.counter("io.fault_events_cancelled")
        .add(static_cast<double>(result.fault_events_cancelled));
  }
  if (result.preemptions > 0) {
    registry.counter("io.preempt.preemptions")
        .add(static_cast<double>(result.preemptions));
  }
  if (result.restarts > 0) {
    registry.counter("io.preempt.restarts")
        .add(static_cast<double>(result.restarts));
  }
  if (result.lost_sim_time > 0.0) {
    registry.counter("io.preempt.lost_sim_time").add(result.lost_sim_time);
  }
  if (checkpoints && checkpoints->stats().gave_up) {
    registry.counter("io.preempt.gave_up").inc();
  }
  if (checkpoints && checkpoints->stats().checkpoint_writes > 0) {
    registry.counter("io.checkpoint.writes")
        .add(static_cast<double>(checkpoints->stats().checkpoint_writes));
  }
  if (result.checkpoint_bytes > 0.0) {
    registry.counter("io.checkpoint.bytes").add(result.checkpoint_bytes);
  }
  if (checkpoints && checkpoints->stats().urgent_checkpoints > 0) {
    registry.counter("io.checkpoint.urgent")
        .add(static_cast<double>(checkpoints->stats().urgent_checkpoints));
  }
  if (checkpoints && checkpoints->stats().restores > 0) {
    registry.counter("io.checkpoint.restores")
        .add(static_cast<double>(checkpoints->stats().restores));
  }
  if (result.outcome == RunOutcome::kDegraded) {
    registry.counter("io.runs_degraded").inc();
  } else if (result.outcome == RunOutcome::kFailed) {
    registry.counter("io.runs_failed").inc();
  }
  return result;
}

}  // namespace acic::io
