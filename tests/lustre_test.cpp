// Tests for the Lustre extension file system.
#include <gtest/gtest.h>

#include "acic/core/paramspace.hpp"
#include "acic/core/training.hpp"
#include "acic/fs/filesystem.hpp"
#include "acic/fs/lustre.hpp"
#include "acic/io/runner.hpp"
#include "acic/ior/ior.hpp"
#include "acic/plugin/substrates.hpp"

namespace acic::fs {
namespace {

cloud::IoConfig lustre_cfg(int servers, Bytes stripe = 4.0 * MiB) {
  cloud::IoConfig c;
  c.fs = cloud::FileSystemType::kLustre;
  c.device = storage::DeviceType::kEphemeral;
  c.io_servers = servers;
  c.placement = cloud::Placement::kDedicated;
  c.stripe_size = stripe;
  return c;
}

cloud::IoConfig pvfs_cfg(int servers) {
  auto c = lustre_cfg(servers);
  c.fs = cloud::FileSystemType::kPvfs2;
  return c;
}

TEST(LustreTest, ConfigPlumbing) {
  const auto c = lustre_cfg(4);
  EXPECT_TRUE(c.valid());
  EXPECT_EQ(c.label(), "lustre.4.D.eph.4M");
  EXPECT_EQ(&plugin::filesystem_named("lustre"),
            &plugin::filesystem_for(cloud::FileSystemType::kLustre));
  EXPECT_EQ(plugin::filesystem_named("Lustre").name, "lustre");
  // Needs a stripe size like any striped FS.
  auto bad = c;
  bad.stripe_size = 0.0;
  EXPECT_FALSE(bad.valid());
}

TEST(LustreTest, FactoryAndParamSpaceRoundTrip) {
  sim::Simulator s;
  cloud::ClusterModel::Options o;
  o.num_processes = 16;
  o.config = lustre_cfg(2);
  o.jitter_sigma = 0.0;
  cloud::ClusterModel cluster(s, o);
  EXPECT_STREQ(make_filesystem(cluster)->name(), "Lustre");

  const auto p = core::ParamSpace::encode(
      lustre_cfg(2), core::ParamSpace::workload_of(core::default_point()));
  EXPECT_DOUBLE_EQ(p[core::kFileSystem], 2.0);
  EXPECT_EQ(core::ParamSpace::config_of(p).fs,
            cloud::FileSystemType::kLustre);
}

TEST(LustreTest, StripingScalesLikeAParallelFs) {
  const auto w = ior::IorBench()
                     .api("POSIX")
                     .tasks(32)
                     .block_size(256.0 * MiB)
                     .transfer_size(16.0 * MiB)
                     .write_only()
                     .file_per_process(true)
                     .build();
  io::RunOptions o;
  o.jitter_sigma = 0.0;
  const auto one = io::run_workload(w, lustre_cfg(1), o);
  const auto four = io::run_workload(w, lustre_cfg(4), o);
  EXPECT_GT(one.total_time, 2.0 * four.total_time);
}

TEST(LustreTest, BeatsPvfs2OnSharedWriteLatency) {
  // Lustre's threaded OSS + cheap extent locks: many small shared-file
  // writes should be at least as fast as our PVFS2 model's.
  const auto w = ior::IorBench()
                     .api("MPIIO")
                     .tasks(32)
                     .block_size(8.0 * MiB)
                     .transfer_size(256.0 * KiB)
                     .write_only()
                     .file_per_process(false)
                     .build();
  io::RunOptions o;
  o.jitter_sigma = 0.0;
  const auto lustre = io::run_workload(w, lustre_cfg(4), o);
  const auto pvfs = io::run_workload(w, pvfs_cfg(4), o);
  EXPECT_LE(lustre.total_time, pvfs.total_time * 1.02);
}

TEST(LustreTest, TrainableViaValueOverride) {
  // The same §8 pathway as the SSD rollout: extend the file-system
  // dimension's sampled values and collect a batch including Lustre.
  core::TrainingPlan plan;
  std::vector<int> order;
  for (int d = 0; d < core::kNumDims; ++d) order.push_back(d);
  plan.dim_order = order;
  plan.top_dims = 6;
  plan.max_samples = 200;
  plan.value_overrides.entries.push_back({core::kFileSystem, {0, 1, 2}});
  core::TrainingDatabase db;
  core::collect_training_data(db, plan);
  bool saw_lustre = false;
  for (const auto& s : db.samples()) {
    if (s.point[core::kFileSystem] == 2.0) saw_lustre = true;
  }
  EXPECT_TRUE(saw_lustre);
}

}  // namespace
}  // namespace acic::fs
