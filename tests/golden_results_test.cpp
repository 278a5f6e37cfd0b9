// Golden simulated results: seeded io::run_workload calls whose RunResult
// fields are pinned bit for bit in golden_results.inc, under the run
// store's simulation epoch.  DeterminismTest only checks run-twice
// equality inside one process, and the golden RunKeys hash inputs only,
// so this is the test that notices when a model or solver change moves a
// simulated answer by one ULP.
//
// On drift the failure names each field that moved (expected vs got, in
// IEEE hex and decimal) and prints the run's current row in .inc syntax.
// A deliberate semantics change bumps exec::RunStore::kSimEpoch, so that
// persisted runs of the old semantics are sidelined, and regenerates the
// file under the new epoch from those rows.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "acic/apps/apps.hpp"
#include "acic/cloud/ioconfig.hpp"
#include "acic/exec/store.hpp"
#include "acic/io/runner.hpp"
#include "acic/ior/ior.hpp"
#include "acic/plugin/substrates.hpp"

namespace acic::io {
namespace {

struct GoldenResult {
  const char* run;
  double total_time;
  double cost;
  double io_time;
  double fs_bytes;
  double stalled_time;
  double lost_sim_time;
  double checkpoint_bytes;
  std::uint64_t fs_requests;
  std::uint64_t sim_events;
  const char* outcome;
  std::uint64_t retries;
  std::uint64_t timeouts;
  std::uint64_t failed_requests;
  std::uint64_t preemptions;
  std::uint64_t restarts;
};

// Defines kGoldenSimEpoch and kGoldenResults.
#include "golden_results.inc"

struct GoldenCase {
  std::string run;
  Workload workload;
  cloud::IoConfig config;
  RunOptions options;
};

cloud::IoConfig striped(cloud::FileSystemType fs, int servers, Bytes stripe,
                        storage::DeviceType device,
                        cloud::Placement placement) {
  cloud::IoConfig c;
  c.fs = fs;
  c.device = device;
  c.io_servers = servers;
  c.placement = placement;
  c.stripe_size = stripe;
  return c;
}

/// The pinned runs, in .inc order: two clean workloads over the three
/// file systems (plus a two-server 64 KiB part-time EBS layout for the
/// striped ones), then faulted mpiBLAST-64 under every non-trivial fault
/// preset with retry armed and checkpointing on, plus spot reclaims
/// restarting from scratch, then a 256-rank shared-file read with up to
/// 1,024 concurrent flows, clean and under brownouts.  Fault seed 3 makes every preset strike the
/// NFS run, outages, brownouts and spot reclaims strike all three file
/// systems, and each reclaim end in a restart.
std::vector<GoldenCase> golden_cases() {
  using cloud::FileSystemType;
  using cloud::Placement;
  using storage::DeviceType;
  const cloud::IoConfig four_server[] = {
      cloud::IoConfig::baseline(),
      striped(FileSystemType::kPvfs2, 4, 4.0 * MiB, DeviceType::kEphemeral,
              Placement::kDedicated),
      striped(FileSystemType::kLustre, 4, 4.0 * MiB, DeviceType::kEphemeral,
              Placement::kDedicated)};
  const cloud::IoConfig two_server[] = {
      striped(FileSystemType::kPvfs2, 2, 64.0 * KiB, DeviceType::kEbs,
              Placement::kPartTime),
      striped(FileSystemType::kLustre, 2, 64.0 * KiB, DeviceType::kEbs,
              Placement::kPartTime)};
  // POSIX writes and reads into one shared file: Lustre's lock path.
  const Workload ior_shared = ior::IorBench()
                                  .api("POSIX")
                                  .tasks(32)
                                  .block_size(16.0 * MiB)
                                  .transfer_size(256.0 * KiB)
                                  .segments(2)
                                  .file_per_process(false)
                                  .read_and_write()
                                  .build();
  const std::pair<std::string, Workload> clean[] = {
      {"BTIO/64", apps::btio(64)}, {"IOR/posix-shared", ior_shared}};

  std::vector<GoldenCase> cases;
  for (const auto& [name, workload] : clean) {
    for (const auto& c : four_server) {
      cases.push_back({name + " " + c.label(), workload, c, RunOptions{}});
    }
    for (const auto& c : two_server) {
      cases.push_back({name + " " + c.label(), workload, c, RunOptions{}});
    }
  }

  const Workload blast = apps::mpiblast(64);
  for (const char* preset :
       {"outages", "brownouts", "stragglers", "lossy-az", "spot-preempt"}) {
    for (const auto& c : four_server) {
      RunOptions o;
      o.seed = 3;
      o.fault_model = plugin::fault_models().lookup(preset).model;
      o.tuning.retry.enabled = true;
      o.checkpoint.enabled = true;
      o.checkpoint.interval = 300.0;
      o.checkpoint.bytes = 2.0 * GiB;
      cases.push_back({std::string("mpiBLAST/64 ") + preset + " ckpt " +
                           c.label(),
                       blast, c, o});
    }
  }
  for (const auto& c : four_server) {
    RunOptions o;
    o.seed = 3;
    o.fault_model = plugin::fault_models().lookup("spot-preempt").model;
    o.tuning.retry.enabled = true;
    cases.push_back({"mpiBLAST/64 spot-preempt scratch " + c.label(), blast,
                     c, o});
  }

  // The many-flow regime, where the flow solver does almost all of its
  // work: the shape of the training sweep's heaviest PB row, 256 ranks
  // reading one shared file in 128 MiB POSIX requests over four 64 KiB
  // stripes, up to 1,024 flows in flight.  Clean, then under brownouts
  // with retry (thousands of cancels and a few capacity changes).
  const Workload wide_read = ior::IorBench()
                                 .api("POSIX")
                                 .tasks(256)
                                 .io_tasks(256)
                                 .block_size(128.0 * MiB)
                                 .transfer_size(128.0 * MiB)
                                 .segments(1)
                                 .file_per_process(false)
                                 .read_only()
                                 .build();
  const cloud::IoConfig wide_layouts[] = {
      striped(FileSystemType::kPvfs2, 4, 64.0 * KiB, DeviceType::kEphemeral,
              Placement::kDedicated),
      striped(FileSystemType::kLustre, 4, 64.0 * KiB, DeviceType::kEphemeral,
              Placement::kDedicated)};
  for (const auto& c : wide_layouts) {
    cases.push_back(
        {"IOR/np256-shared-read " + c.label(), wide_read, c, RunOptions{}});
  }
  for (const auto& c : wide_layouts) {
    RunOptions o;
    o.seed = 3;
    o.fault_model = plugin::fault_models().lookup("brownouts").model;
    o.tuning.retry.enabled = true;
    cases.push_back({"IOR/np256-shared-read brownouts " + c.label(),
                     wide_read, c, o});
  }
  return cases;
}

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// The run's current result as one golden_results.inc row.
std::string inc_row(const std::string& run, const RunResult& r) {
  std::ostringstream os;
  os << "{\"" << run << "\", " << hex(r.total_time) << ", " << hex(r.cost)
     << ", " << hex(r.io_time) << ", " << hex(r.fs_bytes) << ", "
     << hex(r.stalled_time) << ", " << hex(r.lost_sim_time) << ", "
     << hex(r.checkpoint_bytes) << ", " << r.fs_requests << ", "
     << r.sim_events << ", \"" << to_string(r.outcome) << "\", "
     << r.retries << ", " << r.timeouts << ", " << r.failed_requests << ", "
     << r.preemptions << ", " << r.restarts << "},";
  return os.str();
}

/// One line per drifted field; empty when the run matches bit for bit.
std::string field_diff(const GoldenResult& want, const RunResult& got) {
  std::ostringstream os;
  const auto real = [&](const char* field, double expected, double actual) {
    if (std::bit_cast<std::uint64_t>(expected) ==
        std::bit_cast<std::uint64_t>(actual)) {
      return;
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "  %s: expected %a (%.17g), got %a (%.17g)\n", field,
                  expected, expected, actual, actual);
    os << buf;
  };
  const auto count = [&](const char* field, std::uint64_t expected,
                         std::uint64_t actual) {
    if (expected != actual) {
      os << "  " << field << ": expected " << expected << ", got " << actual
         << "\n";
    }
  };
  real("total_time", want.total_time, got.total_time);
  real("cost", want.cost, got.cost);
  real("io_time", want.io_time, got.io_time);
  real("fs_bytes", want.fs_bytes, got.fs_bytes);
  real("stalled_time", want.stalled_time, got.stalled_time);
  real("lost_sim_time", want.lost_sim_time, got.lost_sim_time);
  real("checkpoint_bytes", want.checkpoint_bytes, got.checkpoint_bytes);
  count("fs_requests", want.fs_requests, got.fs_requests);
  count("sim_events", want.sim_events, got.sim_events);
  if (std::string(want.outcome) != to_string(got.outcome)) {
    os << "  outcome: expected " << want.outcome << ", got "
       << to_string(got.outcome) << "\n";
  }
  count("retries", want.retries, got.retries);
  count("timeouts", want.timeouts, got.timeouts);
  count("failed_requests", want.failed_requests, got.failed_requests);
  count("preemptions", want.preemptions, got.preemptions);
  count("restarts", want.restarts, got.restarts);
  return os.str();
}

TEST(GoldenResults, SeededRunsAreBitStable) {
  const auto cases = golden_cases();
  EXPECT_EQ(std::size(kGoldenResults), cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const GoldenCase& c = cases[i];
    const RunResult r = run_workload(c.workload, c.config, c.options);
    if (i >= std::size(kGoldenResults) ||
        c.run != kGoldenResults[i].run) {
      ADD_FAILURE() << "no golden row " << i << " for " << c.run
                    << "\n  current: " << inc_row(c.run, r);
      continue;
    }
    const std::string diff = field_diff(kGoldenResults[i], r);
    EXPECT_TRUE(diff.empty()) << c.run << " drifted:\n"
                              << diff << "  current: " << inc_row(c.run, r);
  }
}

// The rows were simulated under one simulation epoch.  Regenerating
// them names the new epoch in the .inc, which fails here until
// RunStore::kSimEpoch is bumped to match: rows move only with an epoch.
TEST(GoldenResults, PinnedUnderTheCurrentEpoch) {
  EXPECT_EQ(kGoldenSimEpoch, exec::RunStore::kSimEpoch);
}

}  // namespace
}  // namespace acic::io
