// Tests for the substrate tables (DESIGN.md §14): the generic Registry
// contracts (typed errors, deterministic enumeration), the seeded
// process tables for all three axes, the paramspace grids derived from
// the filesystem grids, and the golden 504-key regression pinning every
// seed-grid RunKey bit-stable plus the 37 faulted keys pinning the
// fault/retry/checkpoint sub-blocks.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "acic/apps/apps.hpp"
#include "acic/cloud/ioconfig.hpp"
#include "acic/core/paramspace.hpp"
#include "acic/exec/runkey.hpp"
#include "acic/io/runner.hpp"
#include "acic/ml/dataset.hpp"
#include "acic/plugin/substrates.hpp"

namespace acic::plugin {
namespace {

LearnerPlugin stub_learner(std::string name) {
  return {std::move(name), [] { return std::unique_ptr<ml::Learner>(); }};
}

TEST(PluginRegistryTest, DuplicateNameIsATypedError) {
  try {
    Registry<LearnerPlugin> reg(
        Kind::kLearner, {stub_learner("alpha"), stub_learner("alpha")});
    FAIL() << "expected PluginError";
  } catch (const PluginError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kDuplicateName);
    EXPECT_EQ(e.kind(), Kind::kLearner);
    EXPECT_EQ(e.name(), "alpha");
    EXPECT_EQ(e.registered(), std::vector<std::string>{"alpha"});
    EXPECT_NE(std::string(e.what()).find("alpha"), std::string::npos);
  }
}

FilesystemPlugin stub_filesystem(std::string name,
                                 cloud::FileSystemType type) {
  FilesystemPlugin p;
  p.name = name;
  p.label_stem = std::move(name);
  p.type = type;
  p.in_default_grid = false;
  p.io_servers = {1, 2, 4};
  p.stripe_sizes = {64.0 * KiB, 4.0 * MiB};
  return p;
}

TEST(PluginRegistryTest, DuplicateTypeIsATypedError) {
  try {
    Registry<FilesystemPlugin> reg(
        Kind::kFilesystem,
        {stub_filesystem("alpha", cloud::FileSystemType::kPvfs2),
         stub_filesystem("beta", cloud::FileSystemType::kPvfs2)});
    FAIL() << "expected PluginError";
  } catch (const PluginError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kDuplicateType);
    EXPECT_EQ(e.kind(), Kind::kFilesystem);
    EXPECT_EQ(e.name(), "beta");
    EXPECT_EQ(e.registered(), std::vector<std::string>{"alpha"});
  }
  const Registry<FilesystemPlugin> distinct(
      Kind::kFilesystem,
      {stub_filesystem("alpha", cloud::FileSystemType::kPvfs2),
       stub_filesystem("beta", cloud::FileSystemType::kLustre)});
  EXPECT_EQ(distinct.size(), 2u);
}

TEST(PluginRegistryTest, UnknownLookupListsRegisteredNames) {
  const Registry<LearnerPlugin> reg(
      Kind::kLearner, {stub_learner("beta"), stub_learner("alpha")});
  try {
    reg.lookup("gamma");
    FAIL() << "expected PluginError";
  } catch (const PluginError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnknownName);
    EXPECT_EQ(e.name(), "gamma");
    const std::vector<std::string> want = {"alpha", "beta"};
    EXPECT_EQ(e.registered(), want);
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown learner 'gamma'"), std::string::npos)
        << what;
    EXPECT_NE(what.find("alpha, beta"), std::string::npos) << what;
  }
}

TEST(PluginRegistryTest, EnumerationIsNameSortedRegardlessOfSeedOrder) {
  const Registry<LearnerPlugin> reg(
      Kind::kLearner,
      {stub_learner("zeta"), stub_learner("alpha"), stub_learner("mid")});
  const std::vector<std::string> want = {"alpha", "mid", "zeta"};
  EXPECT_EQ(reg.names(), want);
  std::vector<std::string> via_all;
  for (const auto& p : reg.all()) via_all.push_back(p.name);
  EXPECT_EQ(via_all, want);
  EXPECT_EQ(&reg.lookup("mid"), &reg.all()[1]);
}

// Every substrate the binary ships is in its table under its canonical
// name.
TEST(PluginRegistryTest, SeedSubstratesAreRegistered) {
  const std::vector<std::string> fs_want = {"lustre", "nfs", "pvfs2"};
  EXPECT_EQ(filesystems().names(), fs_want);
  const std::vector<std::string> learner_want = {"cart", "forest", "knn",
                                                 "linear"};
  EXPECT_EQ(learners().names(), learner_want);
  const std::vector<std::string> fault_want = {
      "brownouts", "lossy-az", "none", "outages", "spot-preempt",
      "stragglers"};
  EXPECT_EQ(fault_models().names(), fault_want);
}

TEST(PluginRegistryTest, FilesystemBridgesAgree) {
  const auto& nfs = filesystem_for(cloud::FileSystemType::kNfs);
  EXPECT_EQ(nfs.name, "nfs");
  EXPECT_TRUE(nfs.single_server);
  EXPECT_TRUE(nfs.matches("NFS"));
  const auto& pvfs = filesystem_named("PVFS2");  // alias spelling
  EXPECT_EQ(pvfs.name, "pvfs2");
  EXPECT_EQ(&pvfs, &filesystem_for(cloud::FileSystemType::kPvfs2));
  EXPECT_EQ(&filesystem_for_level(0.2), &nfs);   // snaps to nearest
  EXPECT_EQ(&filesystem_for_level(2.4),
            &filesystem_for(cloud::FileSystemType::kLustre));

  // Lustre is in the table but outside the paper's Table 1 grid.
  const auto& grid = default_grid_filesystems();
  ASSERT_EQ(grid.size(), 2u);
  EXPECT_EQ(grid[0]->name, "nfs");    // level order, not name order
  EXPECT_EQ(grid[1]->name, "pvfs2");
  EXPECT_EQ(&grid, &default_grid_filesystems());  // computed once
}

TEST(PluginRegistryTest, MakeLearnerConstructsEverySeed) {
  for (const auto& p : learners().all()) {
    const auto learner = make_learner(p.name);
    ASSERT_NE(learner, nullptr) << p.name;
  }
  EXPECT_THROW(make_learner("perceptron"), PluginError);
}

TEST(PluginRegistryTest, InventoryIsKindMajorAndNameSorted) {
  const auto& inv = inventory();
  ASSERT_EQ(inv.size(), 13u);
  ASSERT_EQ(inv.size(),
            filesystems().size() + learners().size() + fault_models().size());
  // Kind blocks in declaration order, names sorted within each block.
  EXPECT_EQ(inv.front().kind, Kind::kFilesystem);
  EXPECT_EQ(inv.front().name, "lustre");
  EXPECT_EQ(inv.back().kind, Kind::kFaultModel);
  EXPECT_EQ(inv.back().name, "stragglers");
  for (std::size_t i = 1; i < inv.size(); ++i) {
    if (inv[i - 1].kind == inv[i].kind) {
      EXPECT_LT(inv[i - 1].name, inv[i].name);
    } else {
      EXPECT_LT(static_cast<int>(inv[i - 1].kind),
                static_cast<int>(inv[i].kind));
    }
  }
}

// The parameter-space grids are derived from the filesystem grids; the
// derivation must reproduce the paper's Table 1 values exactly.
TEST(PluginParamSpace, GridsDeriveFromFilesystemGrids) {
  const auto& fs = core::ParamSpace::dimension(core::kFileSystem);
  EXPECT_EQ(fs.values, (std::vector<double>{0.0, 1.0}));
  const auto& servers = core::ParamSpace::dimension(core::kIoServers);
  EXPECT_EQ(servers.values, (std::vector<double>{1.0, 2.0, 4.0}));
  const auto& stripe = core::ParamSpace::dimension(core::kStripeSize);
  EXPECT_EQ(stripe.values, (std::vector<double>{64.0 * KiB, 4.0 * MiB}));
  EXPECT_EQ(cloud::IoConfig::enumerate_candidates().size(), 56u);
}

// ---------------------------------------------------------------------
// Golden RunKey regressions
// ---------------------------------------------------------------------

// The seed grid's 504 RunKeys (9 evaluation runs x 56 candidates),
// captured before the plugin-registry refactor.  Any drift here would
// silently orphan every persisted run cache, so a mismatch is a
// hard failure: either revert the key change or bump kVersionTag
// deliberately and regenerate the .inc.
struct GoldenKey {
  const char* run;    // "app/scale"
  const char* label;  // IoConfig::label()
  const char* hex;    // RunKey::hex()
};

constexpr GoldenKey kGoldenKeys[] = {
#include "golden_runkeys_seed_grid.inc"
};

TEST(RunKeyGolden, SeedGridKeysAreBitStable) {
  const auto runs = apps::evaluation_suite();
  const auto candidates = cloud::IoConfig::enumerate_candidates();
  ASSERT_EQ(std::size(kGoldenKeys), runs.size() * candidates.size());
  std::size_t i = 0;
  for (const auto& run : runs) {
    const std::string run_name = run.app + "/" + std::to_string(run.scale);
    for (const auto& c : candidates) {
      const io::RunOptions opts;  // defaults, as the ground-truth grid uses
      ASSERT_EQ(run_name, kGoldenKeys[i].run) << "grid order drifted at " << i;
      ASSERT_EQ(c.label(), kGoldenKeys[i].label)
          << "grid order drifted at " << i;
      EXPECT_EQ(exec::run_key(run.workload, c, opts).hex(),
                kGoldenKeys[i].hex)
          << run_name << " " << c.label();
      ++i;
    }
  }
}

// Faulted mpiBLAST-64 keys: the fault, retry and checkpoint sub-blocks
// of the fingerprint, which the default-options seed grid never reaches.
struct GoldenFaultKey {
  const char* faults;  // fault preset name, or the lone outage-rate row
  const char* label;   // IoConfig::label()
  bool checkpoint;
  const char* hex;
};

constexpr GoldenFaultKey kGoldenFaultKeys[] = {
#include "golden_runkeys_faults.inc"
};

TEST(RunKeyGolden, FaultedKeysAreBitStable) {
  const io::Workload w = apps::mpiblast(64);
  cloud::IoConfig pvfs;
  pvfs.fs = cloud::FileSystemType::kPvfs2;
  pvfs.device = storage::DeviceType::kEphemeral;
  pvfs.io_servers = 4;
  cloud::IoConfig lustre = pvfs;
  lustre.fs = cloud::FileSystemType::kLustre;
  const cloud::IoConfig configs[] = {cloud::IoConfig::baseline(), pvfs,
                                     lustre};
  const auto presets = fault_models().all();
  ASSERT_EQ(std::size(kGoldenFaultKeys), presets.size() * 3 * 2 + 1);
  std::size_t i = 0;
  for (const FaultModelPlugin& preset : presets) {
    for (const auto& c : configs) {
      for (bool checkpoint : {false, true}) {
        const GoldenFaultKey& golden = kGoldenFaultKeys[i++];
        ASSERT_EQ(preset.name, golden.faults);
        ASSERT_EQ(c.label(), golden.label);
        ASSERT_EQ(checkpoint, golden.checkpoint);
        io::RunOptions opts;
        opts.fault_model = preset.model;
        opts.tuning.retry.enabled = true;
        if (checkpoint) {
          opts.checkpoint.enabled = true;
          opts.checkpoint.interval = 300.0;
          opts.checkpoint.bytes = 2.0 * GiB;
        }
        EXPECT_EQ(exec::run_key(w, c, opts).hex(), golden.hex)
            << golden.faults << " " << golden.label << " checkpoint="
            << checkpoint;
      }
    }
  }
  io::RunOptions outages_only;
  outages_only.fault_model.outages_per_hour = 2.0;
  const GoldenFaultKey& golden = kGoldenFaultKeys[i];
  ASSERT_EQ(std::string("outages_per_hour=2"), golden.faults);
  EXPECT_EQ(exec::run_key(w, cloud::IoConfig::baseline(), outages_only).hex(),
            golden.hex);
}

}  // namespace
}  // namespace acic::plugin
