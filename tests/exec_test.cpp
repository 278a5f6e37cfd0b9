// Tests for the unified execution engine: canonical run identity
// (exec::RunKey), the two-tier run cache, the persistent RunStore with
// corrupt-row quarantine, and the deduplicating batch scheduler.
//
// The ExecConcurrency suite is part of the TSan test filter: it
// exercises concurrent run()/run_batch() callers against one executor.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "acic/cloud/ioconfig.hpp"
#include "acic/common/error.hpp"
#include "acic/exec/executor.hpp"
#include "acic/exec/runkey.hpp"
#include "acic/exec/store.hpp"
#include "acic/io/runner.hpp"
#include "acic/io/workload.hpp"
#include "acic/ior/ior.hpp"
#include "acic/profiler/tracer.hpp"

namespace acic {
namespace {

io::Workload test_workload() {
  io::Workload w;
  w.name = "exec-test";
  w.num_processes = 16;
  w.num_io_processes = 16;
  w.interface = io::IoInterface::kMpiIo;
  w.iterations = 2;
  w.data_size = 4.0 * MiB;
  w.request_size = 1.0 * MiB;
  w.op = io::OpMix::kWrite;
  return w;
}

/// A scratch directory that cleans up after itself.
struct TempDir {
  explicit TempDir(const std::string& tag) {
    static std::atomic<int> counter{0};
    path = std::filesystem::temp_directory_path() /
           ("acic_exec_test_" + tag + "_" +
            std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1)));
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string str() const { return path.string(); }
  std::filesystem::path path;
};

/// Executor whose "simulator" is a counting fake: deterministic result
/// derived from the request, plus an execution tally.
struct FakeEngine {
  std::atomic<int> executions{0};
  exec::Executor executor;

  explicit FakeEngine(std::string store_dir = {},
                      double delay_seconds = 0.0)
      : executor(make_options(this, std::move(store_dir), delay_seconds)) {}

  static exec::ExecutorOptions make_options(FakeEngine* self,
                                            std::string store_dir,
                                            double delay_seconds) {
    exec::ExecutorOptions o;
    o.store_dir = std::move(store_dir);
    o.run_fn = [self, delay_seconds](const exec::RunRequest& r) {
      self->executions.fetch_add(1);
      if (delay_seconds > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(delay_seconds));
      }
      io::RunResult result;
      result.total_time = 100.0 + r.config.io_servers +
                          static_cast<double>(r.workload.num_processes);
      result.cost = 1.0 + 0.01 * r.config.io_servers;
      result.io_time = 10.0;
      result.num_instances = r.config.io_servers + 1;
      result.fs_requests = 42;
      result.fs_bytes = r.workload.data_size;
      result.sim_events = 1000;
      result.outcome = io::RunOutcome::kOk;
      return result;
    };
    return o;
  }
};

// --------------------------------------------------------------------
// RunKey: canonical identity
// --------------------------------------------------------------------

TEST(RunKeyTest, EquivalentSpellingsShareOneKey) {
  const auto w = test_workload();
  const cloud::IoConfig cfg = cloud::IoConfig::baseline();
  const io::RunOptions opts;
  const auto base = exec::run_key(w, cfg, opts);

  // The workload display name is not behaviour.
  io::Workload renamed = w;
  renamed.name = "a-completely-different-label";
  EXPECT_EQ(base, exec::run_key(renamed, cfg, opts));

  // An un-normalized spelling keys like its normalized form (the runner
  // normalizes before simulating).
  io::Workload raw = w;
  raw.num_io_processes = 99;  // normalize clamps to num_processes
  io::Workload normalized = raw;
  normalized.normalize();
  EXPECT_EQ(exec::run_key(raw, cfg, opts),
            exec::run_key(normalized, cfg, opts));

  // -0.0 and +0.0 jitter behave identically.
  io::RunOptions poszero = opts;
  poszero.jitter_sigma = 0.0;
  io::RunOptions negzero = opts;
  negzero.jitter_sigma = -0.0;
  EXPECT_EQ(exec::run_key(w, cfg, poszero),
            exec::run_key(w, cfg, negzero));

  // Inert fault shape: brownout_fraction is meaningless while the
  // brownout rate is zero.
  io::RunOptions inert = opts;
  inert.fault_model.brownout_fraction = 0.9;
  EXPECT_EQ(base, exec::run_key(w, cfg, inert));

  // NFS ignores (and normalises away) the stripe size.
  cloud::IoConfig nfs_a = cfg;
  nfs_a.stripe_size = 0.0;
  cloud::IoConfig nfs_b = cfg;
  nfs_b.stripe_size = 64.0 * MiB;
  EXPECT_EQ(exec::run_key(w, nfs_a, opts), exec::run_key(w, nfs_b, opts));
}

TEST(RunKeyTest, DistinctBehavioursGetDistinctKeys) {
  const auto w = test_workload();
  const cloud::IoConfig cfg = cloud::IoConfig::baseline();
  const io::RunOptions opts;
  const auto base = exec::run_key(w, cfg, opts);

  io::RunOptions seeded = opts;
  seeded.seed = 999;
  EXPECT_NE(base, exec::run_key(w, cfg, seeded));

  io::RunOptions jitter = opts;
  jitter.jitter_sigma = 0.25;
  EXPECT_NE(base, exec::run_key(w, cfg, jitter));

  // Different fault models are different runs — including models that
  // agree on every armed rate but differ in which fault class is armed.
  io::RunOptions outages = opts;
  outages.fault_model.outages_per_hour = 1.5;
  io::RunOptions stragglers = opts;
  stragglers.fault_model.stragglers_per_hour = 1.5;
  EXPECT_NE(exec::run_key(w, cfg, outages),
            exec::run_key(w, cfg, stragglers));
  EXPECT_NE(base, exec::run_key(w, cfg, outages));

  io::RunOptions retry = opts;
  retry.tuning.retry.enabled = true;
  EXPECT_NE(base, exec::run_key(w, cfg, retry));

  // The two file-system costs a run can vary (ablations a and b).
  io::RunOptions no_cache = opts;
  no_cache.tuning.nfs_cache_fraction = 0.0;
  EXPECT_NE(base, exec::run_key(w, cfg, no_cache));
  io::RunOptions no_stripe_cpu = opts;
  no_stripe_cpu.tuning.pvfs_per_stripe_cpu = 0.0;
  EXPECT_NE(base, exec::run_key(w, cfg, no_stripe_cpu));
  EXPECT_NE(exec::run_key(w, cfg, no_cache),
            exec::run_key(w, cfg, no_stripe_cpu));

  io::RunOptions priced = opts;
  priced.detailed_pricing = cloud::DetailedPricing{};
  EXPECT_NE(base, exec::run_key(w, cfg, priced));

  cloud::IoConfig pvfs;
  pvfs.fs = cloud::FileSystemType::kPvfs2;
  pvfs.io_servers = 4;
  EXPECT_NE(base, exec::run_key(w, pvfs, opts));

  io::Workload bigger = w;
  bigger.data_size *= 2.0;
  EXPECT_NE(base, exec::run_key(bigger, cfg, opts));
}

TEST(RunKeyTest, HexRoundTrip) {
  const auto key = exec::run_key(test_workload(),
                                 cloud::IoConfig::baseline(), {});
  const auto hex = key.hex();
  EXPECT_EQ(hex.size(), 32u);
  const auto parsed = exec::RunKey::from_hex(hex);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(key, *parsed);

  EXPECT_FALSE(exec::RunKey::from_hex("").has_value());
  EXPECT_FALSE(exec::RunKey::from_hex("abc").has_value());
  EXPECT_FALSE(
      exec::RunKey::from_hex(std::string(31, 'a') + "g").has_value());
  EXPECT_FALSE(exec::RunKey::from_hex(std::string(32, 'Z')).has_value());
}

// --------------------------------------------------------------------
// Executor: two-tier cache
// --------------------------------------------------------------------

TEST(ExecutorCacheTest, WarmHitIsBitIdenticalAndFree) {
  FakeEngine fake;
  const exec::RunRequest req{test_workload(), cloud::IoConfig::baseline(),
                             io::RunOptions{}};
  exec::RunInfo cold_info;
  const auto cold = fake.executor.run(req, &cold_info);
  EXPECT_EQ(cold_info.source, exec::RunSource::kExecuted);
  EXPECT_EQ(fake.executions.load(), 1);

  exec::RunInfo warm_info;
  const auto warm = fake.executor.run(req, &warm_info);
  EXPECT_EQ(warm_info.source, exec::RunSource::kMemo);
  EXPECT_EQ(fake.executions.load(), 1);  // no second simulation
  EXPECT_EQ(warm_info.key, cold_info.key);

  EXPECT_EQ(cold.total_time, warm.total_time);
  EXPECT_EQ(cold.cost, warm.cost);
  EXPECT_EQ(cold.io_time, warm.io_time);
  EXPECT_EQ(cold.fs_requests, warm.fs_requests);
  EXPECT_EQ(cold.sim_events, warm.sim_events);
  EXPECT_EQ(cold.outcome, warm.outcome);
}

TEST(ExecutorCacheTest, RealSimulatorColdVsWarmIsBitIdentical) {
  // Same, but against the real deterministic simulator through run_ior.
  exec::Executor engine;
  const auto w = ior::IorBench().tasks(8).segments(2).build();
  cloud::IoConfig pvfs;
  pvfs.fs = cloud::FileSystemType::kPvfs2;
  pvfs.io_servers = 2;
  io::RunOptions opts;
  opts.seed = 7;
  opts.jitter_sigma = 0.06;

  exec::RunInfo a_info;
  exec::RunInfo b_info;
  const auto a = ior::run_ior(w, pvfs, opts, &engine, &a_info);
  const auto b = ior::run_ior(w, pvfs, opts, &engine, &b_info);
  EXPECT_EQ(a_info.source, exec::RunSource::kExecuted);
  EXPECT_EQ(b_info.source, exec::RunSource::kMemo);
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.sim_events, b.sim_events);
}

// A preempted-then-recovered run is a legitimate cacheable outcome: the
// warm hit must replay the degraded grade and the full restart
// provenance byte-identically, never surface as a clean timing.
TEST(ExecutorCacheTest, PreemptedRunReplaysGradedOutcomeFromCache) {
  exec::Executor engine;
  io::Workload w = test_workload();
  w.iterations = 4;
  w.data_size = 512.0 * MiB;  // long enough for reclaims to land mid-run
  cloud::IoConfig pvfs;
  pvfs.fs = cloud::FileSystemType::kPvfs2;
  pvfs.device = storage::DeviceType::kEphemeral;
  pvfs.io_servers = 4;
  pvfs.placement = cloud::Placement::kDedicated;
  pvfs.stripe_size = 1.0 * MiB;
  io::RunOptions opts;
  opts.seed = 6;  // this schedule preempts and recovers within budget
  opts.fault_model.preemptions_per_hour = 60.0;
  opts.fault_model.preemption_notice = 10.0;
  opts.checkpoint.enabled = true;
  opts.checkpoint.interval = 15.0;
  opts.checkpoint.bytes = 8.0 * MiB;
  opts.checkpoint.replacement_delay_min = 5.0;
  opts.checkpoint.replacement_delay_max = 20.0;
  opts.watchdog_sim_time = 4.0 * kHour;
  opts.spot_pricing.emplace();

  exec::RunInfo cold_info;
  exec::RunInfo warm_info;
  const exec::RunRequest req{w, pvfs, opts};
  const auto cold = engine.run(req, &cold_info);
  const auto warm = engine.run(req, &warm_info);
  EXPECT_EQ(cold_info.source, exec::RunSource::kExecuted);
  EXPECT_EQ(warm_info.source, exec::RunSource::kMemo);
  // The run must really have been preempted and recovered, else the
  // replay assertions below are vacuous.
  ASSERT_EQ(cold.outcome, io::RunOutcome::kDegraded);
  ASSERT_GT(cold.restarts, 0u);
  EXPECT_EQ(warm.outcome, cold.outcome);
  EXPECT_EQ(warm.total_time, cold.total_time);
  EXPECT_EQ(warm.cost, cold.cost);
  EXPECT_EQ(warm.preemptions, cold.preemptions);
  EXPECT_EQ(warm.restarts, cold.restarts);
  EXPECT_EQ(warm.lost_sim_time, cold.lost_sim_time);
  EXPECT_EQ(warm.checkpoint_bytes, cold.checkpoint_bytes);
}

TEST(ExecutorCacheTest, FailedRunsAreCachedAsFailures) {
  exec::ExecutorOptions o;
  std::atomic<int> executions{0};
  o.run_fn = [&executions](const exec::RunRequest&) {
    executions.fetch_add(1);
    io::RunResult r;
    r.outcome = io::RunOutcome::kFailed;
    r.total_time = 0.0;
    r.cost = 0.0;
    return r;
  };
  exec::Executor executor(std::move(o));
  const exec::RunRequest req{test_workload(), cloud::IoConfig::baseline(),
                             io::RunOptions{}};
  const auto cold = executor.run(req);
  exec::RunInfo info;
  const auto warm = executor.run(req, &info);
  EXPECT_EQ(executions.load(), 1);  // the failure itself is cached...
  EXPECT_EQ(info.source, exec::RunSource::kMemo);
  // ...and keeps its grade: a warm hit can never surface as a timing.
  EXPECT_EQ(cold.outcome, io::RunOutcome::kFailed);
  EXPECT_EQ(warm.outcome, io::RunOutcome::kFailed);
}

// A request the simulator rejects is rejected warm as well as cold.  A
// disabled retry policy's fields are not part of the RunKey, so a zero
// timeout without retry keys like a clean run whose result is cached in
// both tiers; the executor must still refuse it, with the simulator's
// text.
TEST(ExecutorCacheTest, InvalidPolicyIsRejectedWhenItsKeyIsWarm) {
  TempDir dir("invalid");
  const exec::RunRequest clean{test_workload(), cloud::IoConfig::baseline(),
                               io::RunOptions{}};
  exec::RunRequest bad = clean;
  bad.options.tuning.retry.request_timeout = 0.0;
  ASSERT_FALSE(bad.options.tuning.retry.enabled);
  ASSERT_EQ(exec::run_key(bad.workload, bad.config, bad.options),
            exec::run_key(clean.workload, clean.config, clean.options));
  const auto rejection = [&bad](exec::Executor& executor) -> std::string {
    try {
      executor.run(bad);
    } catch (const Error& e) {
      return e.what();
    }
    return "no error";
  };
  // Cold, against the real simulator.
  exec::Executor cold;
  const std::string cold_error = rejection(cold);
  EXPECT_NE(cold_error.find("invalid retry policy"), std::string::npos)
      << cold_error;
  // Warm in the memo tier.
  FakeEngine warm(dir.str());
  warm.executor.run(clean);
  const std::string memo_error = rejection(warm.executor);
  EXPECT_NE(memo_error.find("invalid retry policy"), std::string::npos)
      << memo_error;
  // Warm in the store tier of a fresh executor.
  FakeEngine reader(dir.str());
  const std::string store_error = rejection(reader.executor);
  EXPECT_NE(store_error.find("invalid retry policy"), std::string::npos)
      << store_error;
  EXPECT_EQ(warm.executions.load(), 1);
  EXPECT_EQ(reader.executions.load(), 0);
  // The other two policies are checked up front the same way.
  exec::RunRequest bad_faults = clean;
  bad_faults.options.fault_model.brownout_fraction = 2.0;
  EXPECT_THROW(warm.executor.run(bad_faults), Error);
  exec::RunRequest bad_checkpoint = clean;
  bad_checkpoint.options.checkpoint.enabled = true;
  bad_checkpoint.options.checkpoint.interval = 0.0;
  EXPECT_THROW(warm.executor.run(bad_checkpoint), Error);
  EXPECT_EQ(warm.executions.load(), 1);
}

TEST(ExecutorCacheTest, TracedRunsBypassTheCache) {
  FakeEngine fake;
  profiler::IoTracer tracer;
  exec::RunRequest req{test_workload(), cloud::IoConfig::baseline(),
                       io::RunOptions{}};
  req.options.tracer = &tracer;
  exec::RunInfo info;
  fake.executor.run(req, &info);
  EXPECT_EQ(info.source, exec::RunSource::kUncacheable);
  fake.executor.run(req, &info);
  EXPECT_EQ(info.source, exec::RunSource::kUncacheable);
  EXPECT_EQ(fake.executions.load(), 2);  // every tap really runs
  EXPECT_EQ(fake.executor.memo_size(), 0u);
}

TEST(ExecutorCacheTest, CacheDisabledIsAPassThrough) {
  exec::ExecutorOptions o;
  std::atomic<int> executions{0};
  o.cache = false;
  o.run_fn = [&executions](const exec::RunRequest&) {
    executions.fetch_add(1);
    io::RunResult r;
    r.total_time = 1.0;
    r.cost = 1.0;
    return r;
  };
  exec::Executor executor(std::move(o));
  const exec::RunRequest req{test_workload(), cloud::IoConfig::baseline(),
                             io::RunOptions{}};
  executor.run(req);
  executor.run(req);
  EXPECT_EQ(executions.load(), 2);
  EXPECT_EQ(executor.memo_size(), 0u);
}

TEST(ExecutorCacheTest, PersistentTierSurvivesIntoAFreshExecutor) {
  TempDir dir("persist");
  const exec::RunRequest req{test_workload(), cloud::IoConfig::baseline(),
                             io::RunOptions{}};
  io::RunResult cold;
  {
    FakeEngine writer(dir.str());
    cold = writer.executor.run(req);
    EXPECT_EQ(writer.executions.load(), 1);
  }
  // A fresh executor (fresh memo) over the same store answers from disk,
  // bit-identically, without simulating.
  FakeEngine reader(dir.str());
  exec::RunInfo info;
  const auto warm = reader.executor.run(req, &info);
  EXPECT_EQ(info.source, exec::RunSource::kStore);
  EXPECT_EQ(reader.executions.load(), 0);
  EXPECT_EQ(cold.total_time, warm.total_time);
  EXPECT_EQ(cold.cost, warm.cost);
  EXPECT_EQ(cold.fs_bytes, warm.fs_bytes);

  // The store hit was promoted to the memo tier.
  const auto again = reader.executor.run(req, &info);
  EXPECT_EQ(info.source, exec::RunSource::kMemo);
  EXPECT_EQ(again.total_time, cold.total_time);
}

// --------------------------------------------------------------------
// RunStore: persistence and quarantine
// --------------------------------------------------------------------

io::RunResult sample_result() {
  io::RunResult r;
  r.total_time = 123.456789012345678;  // exercises %.17g round-tripping
  r.cost = 0.1;
  r.io_time = 45.0;
  r.num_instances = 5;
  r.fs_requests = 777;
  r.fs_bytes = 1.5 * GiB;
  r.sim_events = 987654321;
  r.outcome = io::RunOutcome::kDegraded;
  r.retries = 3;
  r.timeouts = 1;
  r.failed_requests = 2;
  r.stalled_time = 6.25;
  r.fault_events_cancelled = 4;
  r.preemptions = 6;
  r.restarts = 5;
  r.lost_sim_time = 78.9012345678901234;
  r.checkpoint_bytes = 3.5 * GiB;
  return r;
}

TEST(RunStoreTest, RoundTripsEveryFieldExactly) {
  TempDir dir("roundtrip");
  const auto key = exec::run_key(test_workload(),
                                 cloud::IoConfig::baseline(), {});
  const auto put = sample_result();
  {
    exec::RunStore store(dir.str());
    store.put(key, put);
    EXPECT_EQ(store.size(), 1u);
    EXPECT_GT(store.bytes_on_disk(), 0u);
  }
  exec::RunStore reopened(dir.str());
  EXPECT_EQ(reopened.size(), 1u);
  EXPECT_EQ(reopened.quarantined(), 0u);
  const auto got = reopened.lookup(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->total_time, put.total_time);
  EXPECT_EQ(got->cost, put.cost);
  EXPECT_EQ(got->io_time, put.io_time);
  EXPECT_EQ(got->num_instances, put.num_instances);
  EXPECT_EQ(got->fs_requests, put.fs_requests);
  EXPECT_EQ(got->fs_bytes, put.fs_bytes);
  EXPECT_EQ(got->sim_events, put.sim_events);
  EXPECT_EQ(got->outcome, put.outcome);
  EXPECT_EQ(got->retries, put.retries);
  EXPECT_EQ(got->timeouts, put.timeouts);
  EXPECT_EQ(got->failed_requests, put.failed_requests);
  EXPECT_EQ(got->stalled_time, put.stalled_time);
  EXPECT_EQ(got->fault_events_cancelled, put.fault_events_cancelled);
  EXPECT_EQ(got->preemptions, put.preemptions);
  EXPECT_EQ(got->restarts, put.restarts);
  EXPECT_EQ(got->lost_sim_time, put.lost_sim_time);
  EXPECT_EQ(got->checkpoint_bytes, put.checkpoint_bytes);
}

TEST(RunStoreTest, CorruptRowsAreQuarantinedNotServed) {
  TempDir dir("quarantine");
  const auto good_key = exec::run_key(test_workload(),
                                      cloud::IoConfig::baseline(), {});
  {
    exec::RunStore store(dir.str());
    store.put(good_key, sample_result());
  }
  // Corrupt the file by hand with records whose CRC frame is *valid*
  // but whose content is not — wrong arity, non-numeric cell, bad key,
  // and the poisonous case, a row claiming `ok` with zero time.  (Bad
  // CRCs are also quarantined when the record is newline-terminated;
  // only unterminated trailing bytes count as a torn tail — see the
  // recovery suite.)
  {
    std::ofstream out(dir.path / "runs.csv", std::ios::app);
    out << exec::RunStore::frame("deadbeef,1.0") << "\n";
    out << exec::RunStore::frame(std::string(32, 'a') +
                                 ",not_a_number,1,1,1,1,1,1,ok,0,0,0,0,0")
        << "\n";
    out << exec::RunStore::frame(
               "zznotakeyzznotakeyzznotakeyzznot,1,1,1,1,1,1,1,ok,0,0,0,0,0")
        << "\n";
    out << exec::RunStore::frame(std::string(32, 'b') +
                                 ",0,0,1,1,1,1,1,ok,0,0,0,0,0")
        << "\n";
  }
  exec::RunStore store(dir.str());
  EXPECT_EQ(store.quarantined(), 4u);
  EXPECT_EQ(store.size(), 1u);  // only the good row survives
  EXPECT_TRUE(store.lookup(good_key).has_value());
  EXPECT_FALSE(
      store.lookup(*exec::RunKey::from_hex(std::string(32, 'b')))
          .has_value());
  EXPECT_TRUE(std::filesystem::exists(dir.path / "quarantine.csv"));

  // runs.csv was rewritten with only survivors: the next open is clean.
  exec::RunStore clean(dir.str());
  EXPECT_EQ(clean.quarantined(), 0u);
  EXPECT_EQ(clean.size(), 1u);
}

TEST(RunStoreTest, IncompatibleSchemaIsSidelinedWhole) {
  TempDir dir("schema");
  std::filesystem::create_directories(dir.path);
  {
    std::ofstream out(dir.path / "runs.csv");
    out << "some_future_schema_v9,who,knows\n";
    out << "row,we,cannot,interpret\n";
  }
  exec::RunStore store(dir.str());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.quarantined(), 0u);
  EXPECT_TRUE(std::filesystem::exists(dir.path / "runs.csv.incompatible"));
}

// A store whose rows were simulated under another simulation epoch —
// the previous header, which had no epoch cell, or another epoch number —
// is sidelined whole on open, and its runs simulate afresh.
TEST(RunStoreTest, StoreOfAnotherSimEpochIsSidelinedAndReSimulated) {
  const std::string epoch_cell =
      ",sim_epoch=" + std::to_string(exec::RunStore::kSimEpoch);
  for (const char* other : {"", ",sim_epoch=1"}) {
    SCOPED_TRACE(std::string("header epoch cell '") + other + "'");
    TempDir dir("epoch");
    const exec::RunRequest req{test_workload(), cloud::IoConfig::baseline(),
                               io::RunOptions{}};
    {
      FakeEngine writer(dir.str());
      writer.executor.run(req);
      EXPECT_EQ(writer.executions.load(), 1);
    }
    std::string content;
    {
      std::ifstream in(dir.path / "runs.csv", std::ios::binary);
      content.assign(std::istreambuf_iterator<char>(in), {});
    }
    const auto header_end = content.find('\n');
    ASSERT_NE(header_end, std::string::npos);
    ASSERT_GE(header_end, epoch_cell.size());
    const auto cell_at = header_end - epoch_cell.size();
    ASSERT_EQ(content.substr(cell_at, epoch_cell.size()), epoch_cell);
    content.replace(cell_at, epoch_cell.size(), other);
    {
      std::ofstream out(dir.path / "runs.csv",
                        std::ios::binary | std::ios::trunc);
      out << content;
    }

    FakeEngine reader(dir.str());
    exec::RunInfo info;
    reader.executor.run(req, &info);
    EXPECT_EQ(info.source, exec::RunSource::kExecuted);
    EXPECT_EQ(reader.executions.load(), 1);
    EXPECT_TRUE(std::filesystem::exists(dir.path / "runs.csv.incompatible"));
    // The fresh file carries the current epoch and the re-simulated row.
    exec::RunStore reopened(dir.str());
    EXPECT_EQ(reopened.size(), 1u);
  }
}

// --------------------------------------------------------------------
// Concurrency: batch dedup + in-flight coalescing (TSan-audited)
// --------------------------------------------------------------------

TEST(ExecConcurrency, BatchCollapsesDuplicateKeysToOneSimulation) {
  FakeEngine fake;
  const auto w = test_workload();
  const cloud::IoConfig cfg = cloud::IoConfig::baseline();
  cloud::IoConfig pvfs;
  pvfs.fs = cloud::FileSystemType::kPvfs2;
  pvfs.io_servers = 4;

  // 32 requests over only two distinct keys, interleaved.
  std::vector<exec::RunRequest> requests;
  for (int i = 0; i < 32; ++i) {
    requests.push_back(
        exec::RunRequest{w, (i % 2 == 0) ? cfg : pvfs, io::RunOptions{}});
  }
  std::vector<exec::RunInfo> infos;
  const auto results = fake.executor.run_batch(requests, 8, &infos);
  EXPECT_EQ(fake.executions.load(), 2);
  ASSERT_EQ(results.size(), 32u);
  ASSERT_EQ(infos.size(), 32u);

  int executed = 0, deduped = 0;
  for (const auto& info : infos) {
    if (info.source == exec::RunSource::kExecuted) ++executed;
    if (info.source == exec::RunSource::kDeduped) ++deduped;
  }
  EXPECT_EQ(executed, 2);
  EXPECT_EQ(deduped, 30);

  // Scatter is per-index: every response matches its request's config.
  for (std::size_t i = 0; i < results.size(); ++i) {
    const double expected_servers = (i % 2 == 0) ? cfg.io_servers
                                                 : pvfs.io_servers;
    EXPECT_EQ(results[i].total_time,
              100.0 + expected_servers + w.num_processes);
  }
}

TEST(ExecConcurrency, ConcurrentCallersCoalesceOntoOneRun) {
  // A deliberately slow fake makes the race window wide: all threads ask
  // for the same key while the first simulation is still in flight.
  FakeEngine fake(/*store_dir=*/{}, /*delay_seconds=*/0.05);
  const exec::RunRequest req{test_workload(), cloud::IoConfig::baseline(),
                             io::RunOptions{}};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<io::RunResult> results(kThreads);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      results[static_cast<std::size_t>(t)] = fake.executor.run(req);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(fake.executions.load(), 1);
  for (const auto& r : results) {
    EXPECT_EQ(r.total_time, results[0].total_time);
    EXPECT_EQ(r.cost, results[0].cost);
  }
}

// Regression: arm_store() used to write options_.store_dir under the
// lock while run() read options_ unlocked — a data race TSan could
// trigger whenever a store was armed mid-traffic.  options_ is now
// immutable after construction (the armed directory lives on the store
// itself), so arming while runs are in flight must be clean.
TEST(ExecConcurrency, ArmStoreRacesConcurrentRuns) {
  TempDir dir("arm_race");
  FakeEngine fake;  // starts with no store
  const auto w = test_workload();
  const auto candidates = cloud::IoConfig::enumerate_candidates();

  std::thread traffic([&] {
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      fake.executor.run(
          exec::RunRequest{w, candidates[i], io::RunOptions{}});
    }
  });
  fake.executor.arm_store(dir.str());
  traffic.join();

  EXPECT_TRUE(fake.executor.has_store());
  EXPECT_FALSE(fake.executor.store_degraded());
  // Runs finishing after the arm land in the store; a rerun of the last
  // key is a cache hit, not a new simulation.
  const int before = fake.executions.load();
  fake.executor.run(
      exec::RunRequest{w, candidates.back(), io::RunOptions{}});
  EXPECT_EQ(fake.executions.load(), before);
}

TEST(ExecConcurrency, ConcurrentDistinctBatchesStayConsistent) {
  FakeEngine fake;
  const auto w = test_workload();
  const auto candidates = cloud::IoConfig::enumerate_candidates();
  std::vector<exec::RunRequest> requests;
  for (const auto& cfg : candidates) {
    requests.push_back(exec::RunRequest{w, cfg, io::RunOptions{}});
  }
  // Two threads race the same batch; every key still runs exactly once.
  std::thread other([&] { fake.executor.run_batch(requests, 4, nullptr); });
  const auto results = fake.executor.run_batch(requests, 4, nullptr);
  other.join();
  EXPECT_EQ(fake.executions.load(), static_cast<int>(candidates.size()));
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].total_time,
              100.0 + candidates[i].io_servers + w.num_processes);
  }
}

}  // namespace
}  // namespace acic
