// Determinism regression: the paper's methodology (and every cached
// training database) assumes that an identical (config, workload, seed)
// triple maps to an identical simulated outcome.  These tests run the
// same simulation twice and demand *bit-identical* results — EXPECT_EQ on
// doubles, not EXPECT_NEAR — so any nondeterminism sneaking into the
// event kernel, the flow solver or the RNG plumbing fails loudly.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "acic/cloud/ioconfig.hpp"
#include "acic/io/runner.hpp"
#include "acic/io/workload.hpp"

namespace acic::io {
namespace {

Workload probe_workload() {
  Workload w;
  w.name = "determinism-probe";
  w.num_processes = 32;
  w.num_io_processes = 16;
  w.interface = IoInterface::kMpiIo;
  w.iterations = 3;
  w.data_size = 8.0 * MiB;
  w.request_size = 1.0 * MiB;
  w.op = OpMix::kWrite;
  w.collective = true;
  w.file_shared = true;
  return w;
}

cloud::IoConfig nfs_config() {
  cloud::IoConfig c;
  c.fs = cloud::FileSystemType::kNfs;
  c.device = storage::DeviceType::kEbs;
  c.io_servers = 1;
  c.placement = cloud::Placement::kDedicated;
  c.stripe_size = 4.0 * MiB;
  return c;
}

cloud::IoConfig pvfs_config() {
  cloud::IoConfig c;
  c.fs = cloud::FileSystemType::kPvfs2;
  c.device = storage::DeviceType::kEphemeral;
  c.io_servers = 4;
  c.placement = cloud::Placement::kPartTime;
  c.stripe_size = 1.0 * MiB;
  return c;
}

void expect_bit_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.total_time, b.total_time);  // bit-identical, not NEAR
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.io_time, b.io_time);
  EXPECT_EQ(a.num_instances, b.num_instances);
  EXPECT_EQ(a.fs_requests, b.fs_requests);
  EXPECT_EQ(a.fs_bytes, b.fs_bytes);
  EXPECT_EQ(a.sim_events, b.sim_events);
  // The fault-reaction statistics must replay too.
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.failed_requests, b.failed_requests);
  EXPECT_EQ(a.stalled_time, b.stalled_time);
  EXPECT_EQ(a.fault_events_cancelled, b.fault_events_cancelled);
  // ...and the preemption/checkpoint accounting.
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.restarts, b.restarts);
  EXPECT_EQ(a.lost_sim_time, b.lost_sim_time);
  EXPECT_EQ(a.checkpoint_bytes, b.checkpoint_bytes);
}

TEST(DeterminismTest, IdenticalRunsAreBitIdenticalOnNfs) {
  RunOptions options;
  options.seed = 7;
  options.jitter_sigma = 0.06;  // jitter on: the RNG must replay exactly
  const RunResult first = run_workload(probe_workload(), nfs_config(), options);
  const RunResult second =
      run_workload(probe_workload(), nfs_config(), options);
  expect_bit_identical(first, second);
  EXPECT_GT(first.sim_events, 0u);
  EXPECT_GT(first.total_time, 0.0);
}

TEST(DeterminismTest, IdenticalRunsAreBitIdenticalOnPvfs2) {
  RunOptions options;
  options.seed = 1234;
  options.jitter_sigma = 0.06;
  options.fault_model.outages_per_hour = 2.0;  // faults must replay too
  const RunResult first =
      run_workload(probe_workload(), pvfs_config(), options);
  const RunResult second =
      run_workload(probe_workload(), pvfs_config(), options);
  expect_bit_identical(first, second);
}

// Seeded chaos — the full fault vocabulary plus client retries — must
// replay bit-for-bit: the resilient training sweeps record these runs in
// the shared database, so any nondeterminism would corrupt it silently.
TEST(DeterminismTest, SeededChaosRunsReplayBitIdentical) {
  RunOptions options;
  options.seed = 77;
  options.jitter_sigma = 0.06;
  options.fault_model.outages_per_hour = 30.0;
  options.fault_model.brownouts_per_hour = 20.0;
  options.fault_model.stragglers_per_hour = 10.0;
  options.fault_model.correlated_outage_probability = 0.1;
  options.fault_model.permanent_loss_probability = 0.05;
  options.tuning.retry.enabled = true;
  options.tuning.retry.request_timeout = 5.0;
  options.tuning.retry.max_attempts = 3;
  const RunResult first =
      run_workload(probe_workload(), pvfs_config(), options);
  const RunResult second =
      run_workload(probe_workload(), pvfs_config(), options);
  expect_bit_identical(first, second);
  // Non-vacuity: the 24 h fault schedule extends far past the job, so
  // cancel_pending() must have had events to cancel.
  EXPECT_GT(first.fault_events_cancelled, 0u);
}

// Preemption chaos with checkpoint/restart armed: reclamation schedule,
// urgent dumps, replacement-server delays and work replay all come from
// seeded streams, so a preempted run must replay bit-for-bit too — the
// executor caches these graded outcomes.
TEST(DeterminismTest, SeededPreemptionRunsReplayBitIdentical) {
  // A longer job than the probe's: seed 9's reclamations land mid-run
  // and recover (twice), so both replays exercise the notice dump, the
  // seeded replacement delay and the lost-work replay.
  Workload w = probe_workload();
  w.data_size = 256.0 * MiB;
  RunOptions options;
  options.seed = 9;
  options.jitter_sigma = 0.06;
  options.fault_model.preemptions_per_hour = 120.0;
  options.fault_model.preemption_notice = 5.0;
  options.checkpoint.enabled = true;
  options.checkpoint.interval = 10.0;
  options.checkpoint.bytes = 4.0 * MiB;
  options.checkpoint.replacement_delay_min = 2.0;
  options.checkpoint.replacement_delay_max = 8.0;
  options.watchdog_sim_time = 4.0 * kHour;
  options.spot_pricing.emplace();
  const RunResult first = run_workload(w, pvfs_config(), options);
  const RunResult second = run_workload(w, pvfs_config(), options);
  expect_bit_identical(first, second);
  // Non-vacuity: this seed's schedule must actually preempt the job.
  EXPECT_GT(first.preemptions, 0u);
  EXPECT_GT(first.restarts, 0u);
}

// Coroutine frames come from a per-thread pool.  Runs made on four
// threads at once, striped fan-outs with retry armed and NFS runs, must
// match the same runs made one after another on this thread, bit for bit.
TEST(DeterminismTest, ConcurrentRunsMatchSerialRuns) {
  // Long enough (tens of simulated seconds) for outages at 300/h to hit
  // the striped runs mid-transfer.
  Workload w = probe_workload();
  w.data_size = 128.0 * MiB;
  struct Job {
    cloud::IoConfig config;
    RunOptions options;
  };
  std::vector<Job> jobs;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    RunOptions striped;
    striped.seed = seed;
    striped.fault_model.outages_per_hour = 300.0;
    striped.tuning.retry.enabled = true;
    striped.tuning.retry.request_timeout = 5.0;
    jobs.push_back({pvfs_config(), striped});
    RunOptions nfs;
    nfs.seed = seed;
    jobs.push_back({nfs_config(), nfs});
  }
  std::vector<RunResult> serial;
  for (const Job& job : jobs) {
    serial.push_back(run_workload(w, job.config, job.options));
  }
  constexpr std::size_t kThreads = 4;
  std::vector<RunResult> concurrent(jobs.size());
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = t; i < jobs.size(); i += kThreads) {
        concurrent[i] = run_workload(w, jobs[i].config, jobs[i].options);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::uint64_t retries = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE(jobs[i].config.label());
    expect_bit_identical(serial[i], concurrent[i]);
    retries += serial[i].retries;
  }
  EXPECT_GT(retries, 0u);  // non-vacuity: timed-out transfers were re-sent
}

TEST(DeterminismTest, SeedChangesTheOutcome) {
  // Sanity check that the bit-identical assertions above are not passing
  // vacuously (e.g. jitter silently disabled).
  RunOptions a, b;
  a.seed = 1;
  b.seed = 2;
  const RunResult ra = run_workload(probe_workload(), pvfs_config(), a);
  const RunResult rb = run_workload(probe_workload(), pvfs_config(), b);
  EXPECT_NE(ra.total_time, rb.total_time);
}

}  // namespace
}  // namespace acic::io
