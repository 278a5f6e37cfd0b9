// Crash-safety and multi-process tests for the persistent run store:
//
//  * FileLockTest / Crc32cTest / CrashpointTest — the durability
//    building blocks (advisory flock, record checksums, deterministic
//    crash injection);
//  * RunStoreRecovery — torn-tail vs interior-corruption policy, the
//    parse_u64 overflow regression, put() rollback on append failure;
//  * RunStoreSharing — two RunStore instances on one directory (the
//    in-process stand-in for two executors in two processes):
//    interleaved put/lookup/compact with no lost rows and no duplicate
//    headers (in the TSan filter);
//  * CrashTorture — fork a writer, kill it at every store write point
//    (before / torn / after), and assert recovery keeps every
//    acknowledged record, truncates at most one torn tail, quarantines
//    nothing valid, and warm-serves the survivors with zero new
//    simulations;
//  * ExecutorDegradation — store I/O failures demote the executor to
//    memo-only (exec.store.degraded=1) instead of failing runs.
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "acic/cloud/ioconfig.hpp"
#include "acic/common/crc32c.hpp"
#include "acic/common/filelock.hpp"
#include "acic/exec/crashpoint.hpp"
#include "acic/exec/executor.hpp"
#include "acic/exec/runkey.hpp"
#include "acic/exec/store.hpp"
#include "acic/io/runner.hpp"
#include "acic/io/workload.hpp"
#include "acic/obs/metrics.hpp"

namespace acic {
namespace {

namespace fsys = std::filesystem;

io::Workload crash_workload() {
  io::Workload w;
  w.name = "store-crash-test";
  w.num_processes = 8;
  w.num_io_processes = 8;
  w.interface = io::IoInterface::kMpiIo;
  w.iterations = 1;
  w.data_size = 1.0 * MiB;
  w.request_size = 256.0 * KiB;
  w.op = io::OpMix::kWrite;
  return w;
}

/// Distinct RunKeys: the i-th request differs by seed.
io::RunOptions opts_for(int i) {
  io::RunOptions o;
  o.seed = 1000 + static_cast<std::uint64_t>(i);
  return o;
}

exec::RunKey key_for(int i) {
  return exec::run_key(crash_workload(), cloud::IoConfig::baseline(),
                       opts_for(i));
}

io::RunResult result_for(int i) {
  io::RunResult r;
  r.total_time = 100.0 + i;
  r.cost = 1.0 + 0.25 * i;
  r.io_time = 10.0;
  r.num_instances = 3;
  r.fs_requests = 7 + static_cast<std::uint64_t>(i);
  r.fs_bytes = 1.0 * MiB;
  r.sim_events = 500;
  r.outcome = io::RunOutcome::kOk;
  return r;
}

struct TempDir {
  explicit TempDir(const std::string& tag) {
    static std::atomic<int> counter{0};
    path = fsys::temp_directory_path() /
           ("acic_store_crash_" + tag + "_" + std::to_string(::getpid()) +
            "_" + std::to_string(counter.fetch_add(1)));
    fsys::remove_all(path);
  }
  ~TempDir() {
    std::error_code ec;
    fsys::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
  fsys::path path;
};

std::string read_whole(const fsys::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Executor over a counting fake simulator, for warm-rerun assertions.
struct FakeEngine {
  std::atomic<int> executions{0};
  exec::Executor executor;

  explicit FakeEngine(std::string store_dir)
      : executor(make_options(this, std::move(store_dir))) {}

  static exec::ExecutorOptions make_options(FakeEngine* self,
                                            std::string store_dir) {
    exec::ExecutorOptions o;
    o.store_dir = std::move(store_dir);
    o.run_fn = [self](const exec::RunRequest& r) {
      self->executions.fetch_add(1);
      io::RunResult result;
      result.total_time = 100.0 + static_cast<double>(r.options.seed % 1000);
      result.cost = 2.0;
      result.io_time = 1.0;
      result.num_instances = 2;
      result.outcome = io::RunOutcome::kOk;
      return result;
    };
    return o;
  }
};

// --------------------------------------------------------------------
// Building blocks
// --------------------------------------------------------------------

TEST(Crc32cTest, KnownVectors) {
  EXPECT_EQ(crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(crc32c(""), 0x00000000u);
  EXPECT_NE(crc32c("abc"), crc32c("abd"));
}

TEST(FileLockTest, InvalidPathIsHarmless) {
  FileLock lock("/nonexistent_acic_dir/never/lock");
  EXPECT_FALSE(lock.valid());
  EXPECT_FALSE(lock.lock_shared());
  EXPECT_FALSE(lock.lock_exclusive());
  EXPECT_FALSE(lock.unlock());
}

TEST(FileLockTest, SharedAndExclusiveRoundTrip) {
  TempDir dir("flock_roundtrip");
  fsys::create_directories(dir.path);
  FileLock lock((dir.path / "lock").string());
  ASSERT_TRUE(lock.valid());
  EXPECT_TRUE(lock.lock_shared());
  EXPECT_TRUE(lock.unlock());
  EXPECT_TRUE(lock.lock_exclusive());
  // flock converts in place: downgrade without an explicit unlock.
  EXPECT_TRUE(lock.lock_shared());
  EXPECT_TRUE(lock.unlock());
}

TEST(FileLockTest, SharedHoldersCoexist) {
  TempDir dir("flock_shared");
  fsys::create_directories(dir.path);
  FileLock a((dir.path / "lock").string());
  FileLock b((dir.path / "lock").string());
  ASSERT_TRUE(a.lock_shared());
  // A second shared holder must not block (a blocking call returning at
  // all proves it).
  EXPECT_TRUE(b.lock_shared());
  EXPECT_TRUE(a.unlock());
  EXPECT_TRUE(b.unlock());
}

TEST(FileLockTest, ExclusiveExcludesSecondHolder) {
  TempDir dir("flock_excl");
  fsys::create_directories(dir.path);
  FileLock a((dir.path / "lock").string());
  FileLock b((dir.path / "lock").string());
  ASSERT_TRUE(a.lock_exclusive());

  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    b.lock_exclusive();
    acquired.store(true);
    b.unlock();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(acquired.load());  // still blocked behind the exclusive
  a.unlock();
  waiter.join();
  EXPECT_TRUE(acquired.load());
}

TEST(CrashpointTest, CountsDownPerSiteAndFires) {
  exec::Crashpoints::arm("unit.site", 3, exec::CrashMode::kTornWrite);
  EXPECT_FALSE(exec::Crashpoints::on_write("unit.site").has_value());
  EXPECT_FALSE(exec::Crashpoints::on_write("other.site").has_value());
  EXPECT_FALSE(exec::Crashpoints::on_write("unit.site").has_value());
  const auto fired = exec::Crashpoints::on_write("unit.site");
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(*fired, exec::CrashMode::kTornWrite);
  // Consumed: the site stays quiet afterwards.
  EXPECT_FALSE(exec::Crashpoints::on_write("unit.site").has_value());
  exec::Crashpoints::disarm();
}

TEST(CrashpointTest, ArmsFromEnvironmentSpec) {
  ::setenv("ACIC_CRASHPOINT", "env.site:2:after", 1);
  exec::Crashpoints::arm_from_env();
  ::unsetenv("ACIC_CRASHPOINT");
  EXPECT_FALSE(exec::Crashpoints::on_write("env.site").has_value());
  const auto fired = exec::Crashpoints::on_write("env.site");
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(*fired, exec::CrashMode::kAfterWrite);
  exec::Crashpoints::disarm();

  // Garbage specs refuse to arm.
  ::setenv("ACIC_CRASHPOINT", "no-count", 1);
  exec::Crashpoints::arm_from_env();
  ::unsetenv("ACIC_CRASHPOINT");
  EXPECT_FALSE(exec::Crashpoints::on_write("no-count").has_value());
}

// --------------------------------------------------------------------
// Recovery policy: torn tails vs interior corruption
// --------------------------------------------------------------------

TEST(RunStoreRecovery, TrailingPartialRecordIsTruncatedSilently) {
  TempDir dir("torn_partial");
  {
    exec::RunStore store(dir.str());
    for (int i = 0; i < 3; ++i) store.put(key_for(i), result_for(i));
  }
  {
    // A crash mid-append leaves an unterminated prefix of a record.
    std::ofstream out(dir.path / "runs.csv",
                      std::ios::app | std::ios::binary);
    out << "0123456789abcdef0123456789abcdef,42.0,1.0";  // no newline
  }
  exec::RunStore store(dir.str());
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.torn_tails(), 1u);
  EXPECT_EQ(store.quarantined(), 0u);  // torn != corrupt: no quarantine
  EXPECT_FALSE(fsys::exists(dir.path / "quarantine.csv"));
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(store.lookup(key_for(i)));

  // The truncation repaired the file: the next open is clean.
  exec::RunStore clean(dir.str());
  EXPECT_EQ(clean.torn_tails(), 0u);
  EXPECT_EQ(clean.size(), 3u);
}

TEST(RunStoreRecovery, BadCrcTerminatedFinalRecordIsQuarantined) {
  TempDir dir("crc_final");
  {
    exec::RunStore store(dir.str());
    for (int i = 0; i < 3; ++i) store.put(key_for(i), result_for(i));
  }
  {
    // A complete, newline-terminated line whose CRC does not match.  A
    // torn single-write append can never persist the trailing newline
    // without the payload in front of it, so even at the tail this is
    // corruption: quarantined, not silently truncated.
    std::string line = exec::RunStore::frame(
        std::string(32, 'c') + ",5,5,1,1,1,1,1,ok,0,0,0,0,0");
    line[0] = line[0] == 'c' ? 'd' : 'c';  // break the checksum
    std::ofstream out(dir.path / "runs.csv",
                      std::ios::app | std::ios::binary);
    out << line << "\n";
  }
  exec::RunStore store(dir.str());
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.torn_tails(), 0u);
  EXPECT_EQ(store.quarantined(), 1u);
  EXPECT_TRUE(fsys::exists(dir.path / "quarantine.csv"));

  exec::RunStore clean(dir.str());
  EXPECT_EQ(clean.quarantined(), 0u);
  EXPECT_EQ(clean.size(), 3u);
}

TEST(RunStoreRecovery, FailedQuarantineWriteIsCountedAsDropped) {
  TempDir dir("quarantine_drop");
  {
    exec::RunStore store(dir.str());
    for (int i = 0; i < 2; ++i) store.put(key_for(i), result_for(i));
  }
  {
    // One corrupt record to sideline...
    std::ofstream out(dir.path / "runs.csv",
                      std::ios::app | std::ios::binary);
    out << exec::RunStore::frame("deadbeef,not_a_row") << "\n";
  }
  // ...but quarantine.csv cannot be opened for append (it is a
  // directory).  Recovery must still scrub the live file, and must
  // report the forensic copy as dropped, not sidelined.
  fsys::create_directories(dir.path / "quarantine.csv");
  exec::RunStore store(dir.str());
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.quarantined(), 0u);
  EXPECT_EQ(store.quarantine_dropped(), 1u);

  exec::RunStore clean(dir.str());
  EXPECT_EQ(clean.quarantine_dropped(), 0u);
  EXPECT_EQ(clean.size(), 2u);
}

TEST(RunStoreRecovery, BadCrcInteriorRecordIsQuarantined) {
  TempDir dir("interior");
  {
    exec::RunStore store(dir.str());
    for (int i = 0; i < 3; ++i) store.put(key_for(i), result_for(i));
  }
  // Bit-flip an interior record (followed by a valid one, so it cannot
  // be mistaken for a torn tail).
  const std::string content = read_whole(dir.path / "runs.csv");
  std::vector<std::string> lines;
  std::istringstream in(content);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u);  // header + 3 records
  lines[2][40] = lines[2][40] == '1' ? '2' : '1';  // corrupt record #2
  {
    std::ofstream out(dir.path / "runs.csv",
                      std::ios::trunc | std::ios::binary);
    for (const auto& line : lines) out << line << "\n";
  }
  exec::RunStore store(dir.str());
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.quarantined(), 1u);
  EXPECT_EQ(store.torn_tails(), 0u);
  EXPECT_TRUE(fsys::exists(dir.path / "quarantine.csv"));

  // The rewrite repaired the live file: the next open is clean.
  exec::RunStore clean(dir.str());
  EXPECT_EQ(clean.quarantined(), 0u);
  EXPECT_EQ(clean.size(), 2u);
}

TEST(RunStoreRecovery, TornHeaderRecoversFresh) {
  TempDir dir("torn_header");
  fsys::create_directories(dir.path);
  {
    // A crash while the very first process initialized the header.
    std::ofstream out(dir.path / "runs.csv", std::ios::binary);
    out << std::string(exec::RunStore::kVersionTag) + ",total_ti";
  }
  exec::RunStore store(dir.str());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.torn_tails(), 1u);
  EXPECT_FALSE(fsys::exists(dir.path / "runs.csv.incompatible"));
  store.put(key_for(0), result_for(0));

  exec::RunStore reopened(dir.str());
  EXPECT_EQ(reopened.size(), 1u);
  EXPECT_EQ(reopened.torn_tails(), 0u);
}

TEST(RunStoreRecovery, ForeignUnterminatedFileIsSidelined) {
  TempDir dir("foreign");
  fsys::create_directories(dir.path);
  {
    std::ofstream out(dir.path / "runs.csv", std::ios::binary);
    out << "not_anything_we_ever_wrote";  // no newline, not our header
  }
  exec::RunStore store(dir.str());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.torn_tails(), 0u);
  EXPECT_TRUE(fsys::exists(dir.path / "runs.csv.incompatible"));
}

TEST(RunStoreRecovery, OverflowingCounterCellIsQuarantined) {
  // Regression for parse_u64 silent wrap: a 21-digit counter used to be
  // accepted as a small wrapped value.  With a valid CRC frame the row
  // is structurally intact, so only the overflow check can reject it.
  TempDir dir("overflow");
  {
    exec::RunStore store(dir.str());
    store.put(key_for(0), result_for(0));
  }
  {
    std::ofstream out(dir.path / "runs.csv",
                      std::ios::app | std::ios::binary);
    out << exec::RunStore::frame(std::string(32, 'a') + ",1,1,1,1," +
                                 std::string(21, '9') +
                                 ",1,1,ok,0,0,0,0,0,0,0,0,0")
        << "\n";
    // UINT64_MAX itself (20 digits) must still round-trip.
    out << exec::RunStore::frame(std::string(32, 'b') +
                                 ",1,1,1,1,18446744073709551615,1,1,ok,"
                                 "0,0,0,0,0,0,0,0,0")
        << "\n";
    // An instance count that fits u64 but not int must not narrow: 2^32+1
    // would otherwise load as num_instances=1.
    out << exec::RunStore::frame(std::string(32, 'c') +
                                 ",1,1,1,4294967297,1,1,1,ok,"
                                 "0,0,0,0,0,0,0,0,0")
        << "\n";
  }
  exec::RunStore store(dir.str());
  EXPECT_EQ(store.quarantined(), 2u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_FALSE(
      store.lookup(*exec::RunKey::from_hex(std::string(32, 'c'))).has_value());
  const auto max_row =
      store.lookup(*exec::RunKey::from_hex(std::string(32, 'b')));
  ASSERT_TRUE(max_row.has_value());
  EXPECT_EQ(max_row->fs_requests, UINT64_MAX);
}

TEST(RunStoreRecovery, PutRollsBackMemoryWhenAppendFails) {
  TempDir dir("rollback");
  exec::RunStore store(dir.str());
  store.put(key_for(0), result_for(0));
  EXPECT_EQ(store.size(), 1u);

  // Yank the directory out from under the store: the next append must
  // fail, and the row must not survive in memory — a later compact()
  // could otherwise resurrect a record that was never acknowledged.
  fsys::remove_all(dir.path);
  EXPECT_THROW(store.put(key_for(1), result_for(1)), Error);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_FALSE(store.lookup(key_for(1)).has_value());
  EXPECT_THROW(store.compact(), Error);
}

// --------------------------------------------------------------------
// Two instances, one directory (the in-process multi-process model) —
// in the TSan filter.
// --------------------------------------------------------------------

TEST(RunStoreSharing, WritersSeeEachOtherThroughReplay) {
  TempDir dir("sharing");
  exec::RunStore a(dir.str());
  exec::RunStore b(dir.str());

  a.put(key_for(0), result_for(0));
  const auto b_sees = b.lookup(key_for(0));  // replay on miss
  ASSERT_TRUE(b_sees.has_value());
  EXPECT_EQ(b_sees->total_time, result_for(0).total_time);
  EXPECT_GE(b.replayed(), 1u);

  b.put(key_for(1), result_for(1));
  ASSERT_TRUE(a.lookup(key_for(1)).has_value());
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(b.size(), 2u);

  // Exactly one header, no matter how many instances appended.
  const std::string content = read_whole(dir.path / "runs.csv");
  std::size_t headers = 0;
  std::istringstream in(content);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(exec::RunStore::kVersionTag, 0) == 0) ++headers;
  }
  EXPECT_EQ(headers, 1u);

  exec::RunStore fresh(dir.str());
  EXPECT_EQ(fresh.size(), 2u);
  EXPECT_EQ(fresh.quarantined(), 0u);
}

TEST(RunStoreSharing, CompactionMergesAndKeepsOtherWritersRows) {
  TempDir dir("compact_share");
  exec::RunStore a(dir.str());
  exec::RunStore b(dir.str());
  a.put(key_for(0), result_for(0));
  b.put(key_for(1), result_for(1));

  // A compacts without having replayed B's row: the exclusive-locked
  // merge must pick it up rather than drop it.
  a.compact();
  EXPECT_EQ(a.size(), 2u);
  EXPECT_GE(a.compactions(), 1u);
  EXPECT_FALSE(fsys::exists(dir.path / "runs.csv.tmp"));

  // B appends after the rename replaced the inode; A's replay detects
  // the replacement and reloads whole.
  b.put(key_for(2), result_for(2));
  ASSERT_TRUE(a.lookup(key_for(2)).has_value());

  exec::RunStore fresh(dir.str());
  EXPECT_EQ(fresh.size(), 3u);
  EXPECT_EQ(fresh.quarantined(), 0u);
  EXPECT_EQ(fresh.torn_tails(), 0u);
}

TEST(RunStoreSharing, ConcurrentWritersLoseNothing) {
  TempDir dir("concurrent");
  exec::RunStore a(dir.str());
  exec::RunStore b(dir.str());
  constexpr int kEach = 16;

  std::thread writer_a([&] {
    for (int i = 0; i < kEach; ++i) a.put(key_for(i), result_for(i));
  });
  std::thread writer_b([&] {
    for (int i = kEach; i < 2 * kEach; ++i) {
      b.put(key_for(i), result_for(i));
    }
  });
  writer_a.join();
  writer_b.join();

  for (int i = 0; i < 2 * kEach; ++i) {
    EXPECT_TRUE(a.lookup(key_for(i)).has_value()) << "key " << i;
    EXPECT_TRUE(b.lookup(key_for(i)).has_value()) << "key " << i;
  }
  exec::RunStore fresh(dir.str());
  EXPECT_EQ(fresh.size(), static_cast<std::size_t>(2 * kEach));
  EXPECT_EQ(fresh.quarantined(), 0u);
  EXPECT_EQ(fresh.torn_tails(), 0u);
}

// Regression: the stats accessors (quarantined(), replayed(),
// compactions(), ...) used to read their counters without taking the
// store mutex, racing with replay/compaction on another thread.  They
// now lock; this test makes TSan (RunStoreSharing.* is in the tsan
// filter) prove it by polling them while two instances write, replay,
// and compact.
TEST(RunStoreSharing, StatsAccessorsAreSafeDuringConcurrentWrites) {
  TempDir dir("stats_race");
  exec::RunStore a(dir.str());
  exec::RunStore b(dir.str());
  constexpr int kEach = 12;

  std::atomic<bool> done{false};
  std::thread reader([&] {
    std::size_t sink = 0;
    while (!done.load(std::memory_order_relaxed)) {
      sink += a.quarantined() + a.quarantine_dropped() + a.torn_tails() +
              a.replayed() + a.compactions() + b.replayed() +
              b.compactions();
    }
    // The counters only grow, so the final poll is an upper bound of
    // any earlier one (keeps `sink` observable, not optimised away).
    EXPECT_GE(a.replayed() + b.replayed() + sink, sink);
  });

  std::thread writer_a([&] {
    for (int i = 0; i < kEach; ++i) a.put(key_for(i), result_for(i));
    a.compact();
  });
  std::thread writer_b([&] {
    for (int i = kEach; i < 2 * kEach; ++i) {
      b.put(key_for(i), result_for(i));
      (void)b.lookup(key_for(0));  // force replay of A's appends
    }
  });
  writer_a.join();
  writer_b.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();

  exec::RunStore fresh(dir.str());
  EXPECT_EQ(fresh.size(), static_cast<std::size_t>(2 * kEach));
  EXPECT_EQ(fresh.quarantined(), 0u);
}

// --------------------------------------------------------------------
// Crash torture: kill a writer at every write point
// --------------------------------------------------------------------

/// Forks `child`, expects it to die via Crashpoints::die() (exit 2).
void run_crashing_child(const std::function<void()>& child) {
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // In the child: no gtest assertions, no exceptions escaping —
    // just do the work and let the armed crashpoint kill us.
    try {
      child();
    } catch (...) {
      ::_exit(99);  // died of the wrong cause
    }
    ::_exit(98);  // survived: the crashpoint never fired
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 2)
      << "child did not die at the crashpoint (98=survived, 99=threw)";
}

TEST(CrashTorture, KillAtEveryAppendWritePoint) {
  constexpr int kRows = 4;
  const exec::CrashMode kModes[] = {exec::CrashMode::kBeforeWrite,
                                    exec::CrashMode::kTornWrite,
                                    exec::CrashMode::kAfterWrite};
  for (const auto mode : kModes) {
    for (int n = 1; n <= kRows; ++n) {
      TempDir dir("torture_append");
      run_crashing_child([&] {
        exec::Crashpoints::arm("store.append", static_cast<std::size_t>(n),
                               mode);
        exec::RunStore store(dir.str());
        for (int i = 0; i < kRows; ++i) store.put(key_for(i), result_for(i));
      });

      // Recovery: every acknowledged record (the n-1 puts that returned)
      // survives; a kAfterWrite crash may leave one extra complete,
      // never-acknowledged record, which recovery is free to keep; at
      // most one torn tail is truncated; nothing valid is quarantined.
      exec::RunStore store(dir.str());
      const auto expected = static_cast<std::size_t>(
          mode == exec::CrashMode::kAfterWrite ? n : n - 1);
      EXPECT_EQ(store.size(), expected)
          << "mode " << static_cast<int>(mode) << " n " << n;
      EXPECT_EQ(store.quarantined(), 0u);
      EXPECT_EQ(store.torn_tails(),
                mode == exec::CrashMode::kTornWrite ? 1u : 0u);
      for (std::size_t i = 0; i < expected; ++i) {
        const auto hit = store.lookup(key_for(static_cast<int>(i)));
        ASSERT_TRUE(hit.has_value());
        EXPECT_EQ(hit->total_time, result_for(static_cast<int>(i)).total_time);
      }

      // A warm rerun over the surviving rows executes zero simulations.
      FakeEngine engine(dir.str());
      for (std::size_t i = 0; i < expected; ++i) {
        exec::RunInfo info;
        engine.executor.run(
            exec::RunRequest{crash_workload(), cloud::IoConfig::baseline(),
                             opts_for(static_cast<int>(i))},
            &info);
        EXPECT_EQ(info.source, exec::RunSource::kStore);
      }
      EXPECT_EQ(engine.executions.load(), 0);
    }
  }
}

TEST(CrashTorture, KillDuringCompactionKeepsTheOldFileWhole) {
  struct Point {
    const char* site;
    exec::CrashMode mode;
  };
  const Point kPoints[] = {
      {"store.compact", exec::CrashMode::kBeforeWrite},
      {"store.compact", exec::CrashMode::kTornWrite},
      {"store.compact", exec::CrashMode::kAfterWrite},
      {"store.compact.rename", exec::CrashMode::kBeforeWrite},
  };
  for (const auto& point : kPoints) {
    TempDir dir("torture_compact");
    {
      exec::RunStore seed(dir.str());
      for (int i = 0; i < 4; ++i) seed.put(key_for(i), result_for(i));
    }
    run_crashing_child([&] {
      exec::Crashpoints::arm(point.site, 1, point.mode);
      exec::RunStore store(dir.str());
      store.compact();
    });

    // The staging file is the only casualty: the live runs.csv is the
    // old complete file, every record intact.
    exec::RunStore store(dir.str());
    EXPECT_EQ(store.size(), 4u) << point.site;
    EXPECT_EQ(store.quarantined(), 0u);
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(store.lookup(key_for(i)).has_value());
    }
    // A later compaction consumes any stale tmp left by the crash.
    store.compact();
    EXPECT_FALSE(fsys::exists(dir.path / "runs.csv.tmp"));
    EXPECT_EQ(store.size(), 4u);
  }
}

TEST(CrashTorture, KillDuringFreshInitLeavesARecoverableStore) {
  TempDir dir("torture_init");
  run_crashing_child([&] {
    // The header is written through the same atomic rewrite path.
    exec::Crashpoints::arm("store.compact", 1, exec::CrashMode::kTornWrite);
    exec::RunStore store(dir.str());
  });
  exec::RunStore store(dir.str());
  EXPECT_EQ(store.size(), 0u);
  store.put(key_for(0), result_for(0));
  exec::RunStore reopened(dir.str());
  EXPECT_EQ(reopened.size(), 1u);
}

// --------------------------------------------------------------------
// Executor degradation: store failures never fail runs
// --------------------------------------------------------------------

TEST(ExecutorDegradation, UnopenableStoreDirDegradesToMemoOnly) {
  TempDir dir("degrade_open");
  fsys::create_directories(dir.path);
  {
    std::ofstream out(dir.path / "plain_file");
    out << "x";
  }
  // A store directory nested under a regular file can never be created.
  FakeEngine engine((dir.path / "plain_file" / "store").string());
  EXPECT_FALSE(engine.executor.has_store());
  EXPECT_TRUE(engine.executor.store_degraded());
  EXPECT_EQ(
      obs::MetricsRegistry::global().gauge("exec.store.degraded").value(),
      1.0);

  // Memo-only service: runs execute, repeats hit the memo.
  const exec::RunRequest req{crash_workload(), cloud::IoConfig::baseline(),
                             opts_for(0)};
  engine.executor.run(req);
  exec::RunInfo info;
  engine.executor.run(req, &info);
  EXPECT_EQ(engine.executions.load(), 1);
  EXPECT_EQ(info.source, exec::RunSource::kMemo);
}

TEST(ExecutorDegradation, AppendFailureMidFlightDegrades) {
  TempDir dir("degrade_append");
  FakeEngine engine(dir.str());
  ASSERT_TRUE(engine.executor.has_store());

  const exec::RunRequest first{crash_workload(), cloud::IoConfig::baseline(),
                               opts_for(0)};
  engine.executor.run(first);
  EXPECT_FALSE(engine.executor.store_degraded());

  // Yank the store directory mid-flight: the next put must degrade the
  // executor, not throw out of run().
  fsys::remove_all(dir.path);
  const exec::RunRequest second{crash_workload(), cloud::IoConfig::baseline(),
                                opts_for(1)};
  const auto result = engine.executor.run(second);
  EXPECT_EQ(result.outcome, io::RunOutcome::kOk);
  EXPECT_EQ(engine.executions.load(), 2);
  EXPECT_TRUE(engine.executor.store_degraded());
  EXPECT_FALSE(engine.executor.has_store());

  // Still serving from the memo tier.
  exec::RunInfo info;
  engine.executor.run(second, &info);
  EXPECT_EQ(info.source, exec::RunSource::kMemo);
  EXPECT_EQ(engine.executions.load(), 2);
}

TEST(ExecutorDegradation, ConcurrentPutFailuresDegradeSafely) {
  // Regression: run() pins the store and calls put() outside the
  // executor lock, so the first worker to fail must not destroy the
  // RunStore out from under peers still inside theirs — the shared_ptr
  // pin keeps it alive until every in-flight call returns.  Under
  // TSan/ASan this test is what catches a use-after-free regression.
  TempDir dir("degrade_race");
  FakeEngine engine(dir.str());
  ASSERT_TRUE(engine.executor.has_store());

  // Yank the directory so every concurrent put fails at once — the
  // exact many-workers-hit-ENOSPC shape degradation exists for.
  fsys::remove_all(dir.path);
  constexpr int kRuns = 16;
  std::vector<exec::RunRequest> requests;
  requests.reserve(kRuns);
  for (int i = 0; i < kRuns; ++i) {
    requests.push_back(exec::RunRequest{
        crash_workload(), cloud::IoConfig::baseline(), opts_for(i)});
  }
  const auto results = engine.executor.run_batch(requests, 8u);
  ASSERT_EQ(results.size(), static_cast<std::size_t>(kRuns));
  for (const auto& r : results) {
    EXPECT_EQ(r.outcome, io::RunOutcome::kOk);
  }
  EXPECT_EQ(engine.executions.load(), kRuns);
  EXPECT_TRUE(engine.executor.store_degraded());
  EXPECT_FALSE(engine.executor.has_store());

  // Memo tier still serves the whole batch warm.
  exec::RunInfo info;
  engine.executor.run(requests[0], &info);
  EXPECT_EQ(info.source, exec::RunSource::kMemo);
  EXPECT_EQ(engine.executions.load(), kRuns);
}

TEST(ExecutorDegradation, ReadOnlyStoreDirDegradesToMemoOnly) {
  if (::geteuid() == 0) {
    GTEST_SKIP() << "root ignores directory permissions";
  }
  TempDir dir("degrade_ro");
  fsys::create_directories(dir.path);
  fsys::permissions(dir.path, fsys::perms::owner_read | fsys::perms::owner_exec,
                    fsys::perm_options::replace);
  FakeEngine engine(dir.str());
  fsys::permissions(dir.path, fsys::perms::owner_all,
                    fsys::perm_options::replace);
  EXPECT_FALSE(engine.executor.has_store());
  EXPECT_TRUE(engine.executor.store_degraded());
  const exec::RunRequest req{crash_workload(), cloud::IoConfig::baseline(),
                             opts_for(5)};
  engine.executor.run(req);
  EXPECT_EQ(engine.executions.load(), 1);
}

}  // namespace
}  // namespace acic
