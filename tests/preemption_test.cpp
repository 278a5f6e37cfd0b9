// End-to-end tests for spot-instance preemption as a first-class fault:
// checkpoint/restart recovery through the configured file system, seeded
// replacement-server acquisition, restart-budget exhaustion, and spot
// billing.  The overarching contract mirrors the outage chaos suite:
// however hostile the reclamation schedule, every run terminates with a
// graded outcome under the watchdog — never a hang or a throw.
#include <gtest/gtest.h>

#include "acic/cloud/cluster.hpp"
#include "acic/cloud/ioconfig.hpp"
#include "acic/cloud/pricing.hpp"
#include "acic/io/checkpoint.hpp"
#include "acic/io/runner.hpp"
#include "acic/io/workload.hpp"

namespace acic::io {
namespace {

Workload spot_workload(int np = 16) {
  Workload w;
  w.name = "spot-probe";
  w.num_processes = np;
  w.num_io_processes = np;
  w.interface = IoInterface::kMpiIo;
  w.iterations = 4;
  // Long enough (~50 s clean on the 4-server array) that a reclamation
  // schedule at spot rates actually lands mid-run; a too-short job sails
  // through its notice windows and finishes before any reclaim.
  w.data_size = 512.0 * MiB;
  w.request_size = 1.0 * MiB;
  w.op = OpMix::kWrite;
  w.collective = true;
  w.file_shared = true;
  return w;
}

cloud::IoConfig pvfs4() {
  cloud::IoConfig c;
  c.fs = cloud::FileSystemType::kPvfs2;
  c.device = storage::DeviceType::kEphemeral;
  c.io_servers = 4;
  c.placement = cloud::Placement::kDedicated;
  c.stripe_size = 1.0 * MiB;
  return c;
}

/// An aggressive reclamation schedule: roughly one preemption per
/// server-minute with a short notice, plus periodic checkpoints small
/// enough to finish inside the notice window.
RunOptions spot_chaos(std::uint64_t seed) {
  RunOptions o;
  o.seed = seed;
  o.fault_model.preemptions_per_hour = 60.0;
  o.fault_model.preemption_notice = 10.0;
  o.checkpoint.enabled = true;
  o.checkpoint.interval = 15.0;
  o.checkpoint.bytes = 8.0 * MiB;
  o.checkpoint.replacement_delay_min = 5.0;
  o.checkpoint.replacement_delay_max = 20.0;
  o.watchdog_sim_time = 4.0 * kHour;
  return o;
}

// The tentpole contract: every preemption chaos run terminates graded
// under the watchdog, with consistent restart accounting.
TEST(PreemptionTest, PreemptionChaosAlwaysTerminatesGraded) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto r = run_workload(spot_workload(), pvfs4(), spot_chaos(seed));
    EXPECT_TRUE(r.outcome == RunOutcome::kOk ||
                r.outcome == RunOutcome::kDegraded ||
                r.outcome == RunOutcome::kFailed);
    // A replacement server implies an observed reclaim, never the
    // other way around (reclaims after the app finished don't restart).
    EXPECT_LE(r.restarts, r.preemptions);
    if (r.restarts > 0) {
      EXPECT_NE(r.outcome, RunOutcome::kOk);
    }
    // Lost work only ever comes from restarts.
    if (r.restarts == 0) {
      EXPECT_DOUBLE_EQ(r.lost_sim_time, 0.0);
    }
    EXPECT_GT(r.total_time, 0.0);
  }
}

// A run that was preempted and recovered grades degraded — the timing is
// real but the cluster was not healthy — and carries full provenance:
// restarts, work replayed, checkpoint bytes dumped.
TEST(PreemptionTest, RestartedRunGradesDegradedWithProvenance) {
  // Seed 3's schedule preempts this job several times, and every reclaim
  // recovers within the default restart budget.
  const auto r = run_workload(spot_workload(), pvfs4(), spot_chaos(3));
  ASSERT_EQ(r.outcome, RunOutcome::kDegraded);
  EXPECT_GT(r.preemptions, 0u);
  EXPECT_GT(r.restarts, 0u);
  EXPECT_GT(r.lost_sim_time, 0.0);
  EXPECT_GT(r.checkpoint_bytes, 0.0);
  EXPECT_GT(r.total_time, 0.0);
}

// With a zero restart budget the first reclaim leaves the server dark
// forever; only the watchdog turns the stalled job into a graded
// failure instead of a hang.
TEST(PreemptionTest, ExhaustedRestartBudgetFailsViaWatchdog) {
  auto o = spot_chaos(3);
  o.checkpoint.max_restarts = 0;
  o.watchdog_sim_time = 1800.0;
  const auto r = run_workload(spot_workload(), pvfs4(), o);
  EXPECT_EQ(r.outcome, RunOutcome::kFailed);
  EXPECT_GT(r.preemptions, 0u);
  EXPECT_EQ(r.restarts, 0u);
}

// Periodic checkpointing on a fault-free cluster: the dumps compete with
// application I/O (total time grows) but the run stays clean, and no
// preemption statistics appear.
TEST(PreemptionTest, CheckpointingWithoutFaultsStaysClean) {
  RunOptions plain;
  plain.seed = 7;
  const auto base = run_workload(spot_workload(), pvfs4(), plain);

  RunOptions o;
  o.seed = 7;
  o.checkpoint.enabled = true;
  o.checkpoint.interval = 5.0;
  o.checkpoint.bytes = 64.0 * MiB;
  const auto r = run_workload(spot_workload(), pvfs4(), o);
  EXPECT_EQ(r.outcome, RunOutcome::kOk);
  EXPECT_EQ(r.preemptions, 0u);
  EXPECT_EQ(r.restarts, 0u);
  EXPECT_DOUBLE_EQ(r.lost_sim_time, 0.0);
  EXPECT_GT(r.checkpoint_bytes, 0.0);
  // Checkpoint I/O went through the same file system as the app's.
  EXPECT_GT(r.fs_bytes, base.fs_bytes);
  EXPECT_GT(r.total_time, base.total_time);
}

// Spot billing: a clean run at the default 35% spot factor costs 35% of
// its on-demand (equation 1) price; each restart adds a flat fee.
TEST(PreemptionTest, SpotPricingDiscountsAndChargesRestarts) {
  RunOptions plain;
  plain.seed = 7;
  const auto on_demand = run_workload(spot_workload(), pvfs4(), plain);

  RunOptions o;
  o.seed = 7;
  o.spot_pricing.emplace();
  const auto spot = run_workload(spot_workload(), pvfs4(), o);
  EXPECT_EQ(spot.outcome, RunOutcome::kOk);
  EXPECT_EQ(spot.total_time, on_demand.total_time);  // billing-only change
  EXPECT_NEAR(spot.cost, 0.35 * on_demand.cost, 1e-9);

  cloud::SpotPricing pricing;
  sim::Simulator s;
  cloud::ClusterModel::Options copts;
  copts.num_processes = 16;
  copts.config = pvfs4();
  copts.jitter_sigma = 0.0;
  cloud::ClusterModel cluster(s, copts);
  const auto clean = pricing.run_cost(cluster, kHour, 0);
  const auto restarted = pricing.run_cost(cluster, kHour, 3);
  EXPECT_NEAR(clean, 0.35 * cluster.cost_of(kHour), 1e-9);
  EXPECT_NEAR(restarted, clean + 3 * pricing.per_restart_cost, 1e-9);
}

TEST(PreemptionTest, CheckpointPolicyValidityRules) {
  CheckpointPolicy p;
  EXPECT_TRUE(p.valid());  // defaults are valid (and inert)
  p.interval = 0.0;
  EXPECT_FALSE(p.valid());
  // Sub-second intervals re-arm ticks without bound: 1 s is the floor.
  p.interval = 1e-300;
  EXPECT_FALSE(p.valid());
  p.interval = 0.999;
  EXPECT_FALSE(p.valid());
  p.interval = CheckpointPolicy::kMinInterval;
  EXPECT_TRUE(p.valid());
  p = {};
  p.bytes = -1.0;
  EXPECT_FALSE(p.valid());
  p = {};
  p.max_restarts = -1;
  EXPECT_FALSE(p.valid());
  p = {};
  p.replacement_delay_min = 50.0;
  p.replacement_delay_max = 10.0;  // inverted bounds
  EXPECT_FALSE(p.valid());
  p = {};
  p.replacement_delay_min = -1.0;
  EXPECT_FALSE(p.valid());
}

// Armed preemptions with checkpointing off still recover — the job
// restarts from scratch, so everything since t=0 is replayed — and the
// recovery leaves provenance but no checkpoint bytes.
TEST(PreemptionTest, RecoveryWithoutCheckpointingReplaysFromScratch) {
  // Seed 6 recovers within budget even from scratch; most seeds spiral
  // (each restart replays everything since t=0, so the exposure window
  // regrows) and exhaust the budget instead — exactly why checkpointing
  // exists.
  auto o = spot_chaos(6);
  o.checkpoint = CheckpointPolicy{};  // periodic dumps off
  o.checkpoint.replacement_delay_min = 5.0;
  o.checkpoint.replacement_delay_max = 20.0;
  o.watchdog_sim_time = 4.0 * kHour;
  const auto r = run_workload(spot_workload(), pvfs4(), o);
  ASSERT_EQ(r.outcome, RunOutcome::kDegraded);
  EXPECT_GT(r.restarts, 0u);
  EXPECT_GT(r.lost_sim_time, 0.0);
  EXPECT_DOUBLE_EQ(r.checkpoint_bytes, 0.0);
}

}  // namespace
}  // namespace acic::io
