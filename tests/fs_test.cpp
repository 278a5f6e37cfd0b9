// Tests for the NFS and PVFS2 file-system models — the behavioural
// contrasts here are what the ACIC learning problem feeds on.
#include <gtest/gtest.h>

#include <memory>

#include "acic/fs/filesystem.hpp"
#include "acic/fs/striped.hpp"

namespace acic::fs {
namespace {

cloud::ClusterModel::Options opts(int np, cloud::IoConfig cfg) {
  cloud::ClusterModel::Options o;
  o.num_processes = np;
  o.config = cfg;
  o.jitter_sigma = 0.0;
  return o;
}

cloud::IoConfig pvfs_cfg(int servers, Bytes stripe,
                         cloud::Placement placement =
                             cloud::Placement::kDedicated) {
  cloud::IoConfig c;
  c.fs = cloud::FileSystemType::kPvfs2;
  c.device = storage::DeviceType::kEphemeral;
  c.io_servers = servers;
  c.placement = placement;
  c.stripe_size = stripe;
  return c;
}

sim::Task do_request(FileSystem& fs, int rank, Bytes bytes, bool write,
                     bool shared, sim::Simulator& s, SimTime& done) {
  co_await fs.request(rank, bytes, write, shared);
  done = s.now();
}

SimTime time_one_request(cloud::IoConfig cfg, int rank, Bytes bytes,
                         bool write, bool shared) {
  sim::Simulator s;
  cloud::ClusterModel cluster(s, opts(32, cfg));
  auto fs = make_filesystem(cluster);
  SimTime done = -1.0;
  s.spawn(do_request(*fs, rank, bytes, write, shared, s, done));
  s.run();
  return done;
}

TEST(Factory, SelectsModelFromConfig) {
  sim::Simulator s;
  cloud::ClusterModel nfs_cluster(s, opts(16, cloud::IoConfig::baseline()));
  EXPECT_STREQ(make_filesystem(nfs_cluster)->name(), "NFS");
  sim::Simulator s2;
  cloud::ClusterModel pvfs_cluster(s2,
                                   opts(16, pvfs_cfg(2, 4.0 * MiB)));
  EXPECT_STREQ(make_filesystem(pvfs_cluster)->name(), "PVFS2");
}

TEST(NfsModelTest, SmallRequestsBeatPvfs2) {
  // Paper §5.6 obs. 4: NFS wins for small POSIX I/O (lower per-op cost,
  // write-back caching).
  const Bytes small = 64.0 * KiB;
  const SimTime nfs = time_one_request(cloud::IoConfig::baseline(), 1, small,
                                       /*write=*/true, /*shared=*/false);
  const SimTime pvfs = time_one_request(pvfs_cfg(1, 64.0 * KiB), 1, small,
                                        /*write=*/true, /*shared=*/false);
  EXPECT_LT(nfs, pvfs);
}

TEST(NfsModelTest, SharedWritePenaltyApplies) {
  const Bytes b = 1.0 * MiB;
  const SimTime shared = time_one_request(cloud::IoConfig::baseline(), 1, b,
                                          true, /*shared=*/true);
  const SimTime priv = time_one_request(cloud::IoConfig::baseline(), 1, b,
                                        true, /*shared=*/false);
  EXPECT_GT(shared, priv);
}

TEST(NfsModelTest, WriteBackHidesSeekButReadPaysIt) {
  const Bytes b = 256.0 * KiB;
  const SimTime w = time_one_request(cloud::IoConfig::baseline(), 1, b, true,
                                     false);
  const SimTime r = time_one_request(cloud::IoConfig::baseline(), 1, b, false,
                                     false);
  EXPECT_LT(w, r);
}

TEST(Pvfs2ModelTest, ServersTouchedFollowsStriping) {
  sim::Simulator s;
  cloud::ClusterModel cluster(s, opts(16, pvfs_cfg(4, 4.0 * MiB)));
  const auto fs = make_filesystem(cluster);
  const auto& striped = dynamic_cast<const StripedModel&>(*fs);
  EXPECT_EQ(striped.servers_touched(1.0 * MiB), 1);   // one stripe
  EXPECT_EQ(striped.servers_touched(8.0 * MiB), 2);   // two stripes
  EXPECT_EQ(striped.servers_touched(64.0 * MiB), 4);  // capped at server count
}

TEST(Pvfs2ModelTest, LargeRequestScalesWithServers) {
  // Paper §5.6 obs. 2: more PVFS2 servers -> better large-transfer times.
  const Bytes big = 512.0 * MiB;
  const SimTime one = time_one_request(pvfs_cfg(1, 4.0 * MiB), 1, big, true,
                                       true);
  const SimTime four = time_one_request(pvfs_cfg(4, 4.0 * MiB), 1, big, true,
                                        true);
  EXPECT_GT(one, 2.5 * four);
}

TEST(Pvfs2ModelTest, TinyStripeCostsCpuOnLargeRequests) {
  const Bytes big = 512.0 * MiB;
  const SimTime coarse = time_one_request(pvfs_cfg(4, 4.0 * MiB), 1, big,
                                          true, true);
  const SimTime fine = time_one_request(pvfs_cfg(4, 64.0 * KiB), 1, big,
                                        true, true);
  EXPECT_GT(fine, coarse);  // 8192 stripes of splitting work vs 128
}

TEST(Pvfs2ModelTest, SmallStripeSpreadsMediumRequests) {
  // A 256 KiB request is one 4 MiB stripe (one server) but four 64 KiB
  // stripes (all four servers) — the fine stripe wins on parallelism.
  sim::Simulator s;
  cloud::ClusterModel cluster(s, opts(16, pvfs_cfg(4, 64.0 * KiB)));
  const auto fine = make_filesystem(cluster);
  const auto& fine_striped = dynamic_cast<const StripedModel&>(*fine);
  EXPECT_EQ(fine_striped.servers_touched(256.0 * KiB), 4);
  sim::Simulator s2;
  cloud::ClusterModel cluster2(s2, opts(16, pvfs_cfg(4, 4.0 * MiB)));
  const auto coarse = make_filesystem(cluster2);
  const auto& coarse_striped = dynamic_cast<const StripedModel&>(*coarse);
  EXPECT_EQ(coarse_striped.servers_touched(256.0 * KiB), 1);
}

TEST(Pvfs2ModelTest, ColocatedWriterSkipsNetwork) {
  // Part-time server on the writer's own instance: local path is faster.
  const Bytes b = 64.0 * MiB;
  const SimTime local = time_one_request(
      pvfs_cfg(1, 4.0 * MiB, cloud::Placement::kPartTime), 0, b, true, true);
  const SimTime remote = time_one_request(
      pvfs_cfg(1, 4.0 * MiB, cloud::Placement::kDedicated), 0, b, true, true);
  EXPECT_LT(local, remote);
}

TEST(FileSystemStats, RequestsAndBytesAccounted) {
  sim::Simulator s;
  cloud::ClusterModel cluster(s, opts(16, pvfs_cfg(2, 4.0 * MiB)));
  auto fs = make_filesystem(cluster);
  SimTime done = -1;
  s.spawn(do_request(*fs, 0, 10.0 * MiB, true, true, s, done));
  s.run();
  EXPECT_EQ(fs->requests_served(), 1u);
  EXPECT_DOUBLE_EQ(fs->bytes_moved(), 10.0 * MiB);
}

sim::Task open_close(FileSystem& fs, int rank) {
  co_await fs.open_file(rank);
  co_await fs.close_file(rank);
}

TEST(FileSystemStats, MetadataOpsCompleteForManyRanks) {
  sim::Simulator s;
  cloud::ClusterModel cluster(s, opts(64, pvfs_cfg(4, 4.0 * MiB)));
  auto fs = make_filesystem(cluster);
  for (int r = 0; r < 64; ++r) s.spawn(open_close(*fs, r));
  s.run();
  EXPECT_TRUE(s.all_processes_done());
  // 128 serialized MDS ops at 0.5 ms >= 64 ms of metadata time.
  EXPECT_GT(s.now(), 0.06);
}

// Property: EBS requests are never faster than the equivalent ephemeral
// request (the EBS path transits the server NIC twice and the volume is
// slower), across request sizes and ops.
class EbsVsEphemeralTest
    : public ::testing::TestWithParam<std::tuple<double, bool>> {};

TEST_P(EbsVsEphemeralTest, EphemeralAtLeastAsFast) {
  const auto [mib, write] = GetParam();
  auto eph = pvfs_cfg(2, 4.0 * MiB);
  auto ebs = eph;
  ebs.device = storage::DeviceType::kEbs;
  const SimTime t_eph = time_one_request(eph, 1, mib * MiB, write, true);
  const SimTime t_ebs = time_one_request(ebs, 1, mib * MiB, write, true);
  EXPECT_LE(t_eph, t_ebs * 1.001);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndOps, EbsVsEphemeralTest,
    ::testing::Combine(::testing::Values(0.25, 4.0, 64.0, 512.0),
                       ::testing::Bool()));

}  // namespace
}  // namespace acic::fs
