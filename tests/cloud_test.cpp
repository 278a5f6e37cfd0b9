// Tests for the cloud substrate: instance catalogue, IoConfig rules,
// cluster topology, pricing and failure injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "acic/cloud/cluster.hpp"
#include "acic/cloud/failure.hpp"
#include "acic/cloud/instance.hpp"
#include "acic/cloud/ioconfig.hpp"
#include "acic/common/error.hpp"

namespace acic::cloud {
namespace {

TEST(InstanceCatalogue, SpecsMatchEc2) {
  const auto& cc2 = instance_spec(InstanceType::kCc2_8xlarge);
  EXPECT_EQ(cc2.name, "cc2.8xlarge");
  EXPECT_EQ(cc2.cores, 16);
  EXPECT_EQ(cc2.ephemeral_disks, 4);
  EXPECT_DOUBLE_EQ(cc2.price_per_hour, 2.40);
  const auto& cc1 = instance_spec(InstanceType::kCc1_4xlarge);
  EXPECT_EQ(cc1.cores, 8);
  EXPECT_DOUBLE_EQ(cc1.price_per_hour, 1.30);
  EXPECT_LT(cc1.core_speed, cc2.core_speed);
}

TEST(IoConfigTest, BaselineIsPaperBaseline) {
  const auto b = IoConfig::baseline();
  EXPECT_EQ(b.fs, FileSystemType::kNfs);
  EXPECT_EQ(b.device, storage::DeviceType::kEbs);
  EXPECT_EQ(b.placement, Placement::kDedicated);
  EXPECT_EQ(b.io_servers, 1);
  EXPECT_EQ(b.effective_raid_members(), 2);
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.label(), "nfs.D.ebs");
}

TEST(IoConfigTest, ValidityRules) {
  IoConfig c = IoConfig::baseline();
  c.io_servers = 2;  // NFS cannot have two servers
  EXPECT_FALSE(c.valid());
  c.fs = FileSystemType::kPvfs2;
  c.stripe_size = 0.0;  // PVFS2 needs a stripe size
  EXPECT_FALSE(c.valid());
  c.stripe_size = 64.0 * KiB;
  EXPECT_TRUE(c.valid());
}

TEST(IoConfigTest, EnumerationCountsAndUniqueLabels) {
  const auto all = IoConfig::enumerate_candidates();
  // 2 devices x 2 instances x 2 placements x (1 NFS + 3x2 PVFS2) = 56.
  EXPECT_EQ(all.size(), 56u);
  std::set<std::string> labels;
  for (const auto& c : all) {
    EXPECT_TRUE(c.valid());
    labels.insert(c.label());
  }
  EXPECT_EQ(labels.size(), all.size());
}

TEST(IoConfigTest, EphemeralRaidUsesAllLocalDisks) {
  IoConfig c = IoConfig::baseline();
  c.device = storage::DeviceType::kEphemeral;
  c.raid_members = 0;
  c.instance = InstanceType::kCc2_8xlarge;
  EXPECT_EQ(c.effective_raid_members(), 4);
  c.instance = InstanceType::kCc1_4xlarge;
  EXPECT_EQ(c.effective_raid_members(), 2);
}

ClusterModel::Options opts(int np, IoConfig cfg) {
  ClusterModel::Options o;
  o.num_processes = np;
  o.config = cfg;
  o.jitter_sigma = 0.0;  // exact capacities for the topology tests
  return o;
}

TEST(ClusterModelTest, DedicatedServersAddInstances) {
  sim::Simulator s;
  IoConfig cfg;
  cfg.fs = FileSystemType::kPvfs2;
  cfg.io_servers = 4;
  cfg.placement = Placement::kDedicated;
  cfg.device = storage::DeviceType::kEphemeral;
  ClusterModel cluster(s, opts(64, cfg));
  EXPECT_EQ(cluster.num_compute_instances(), 4);  // 64 ranks / 16 cores
  EXPECT_EQ(cluster.num_instances(), 8);
  for (int srv = 0; srv < 4; ++srv) {
    EXPECT_GE(cluster.instance_of_server(srv), 4);
  }
}

TEST(ClusterModelTest, PartTimeServersShareComputeInstances) {
  sim::Simulator s;
  IoConfig cfg;
  cfg.fs = FileSystemType::kPvfs2;
  cfg.io_servers = 4;
  cfg.placement = Placement::kPartTime;
  cfg.device = storage::DeviceType::kEphemeral;
  ClusterModel cluster(s, opts(64, cfg));
  EXPECT_EQ(cluster.num_instances(), 4);  // no extra bill
  for (int srv = 0; srv < 4; ++srv) {
    EXPECT_LT(cluster.instance_of_server(srv), 4);
  }
  // Rank 0 lives on instance 0, which hosts server 0.
  EXPECT_TRUE(cluster.rank_colocated_with_server(0, 0));
}

TEST(ClusterModelTest, LocalWritePathSkipsNics) {
  sim::Simulator s;
  IoConfig cfg;
  cfg.fs = FileSystemType::kPvfs2;
  cfg.io_servers = 1;
  cfg.placement = Placement::kPartTime;
  cfg.device = storage::DeviceType::kEphemeral;
  ClusterModel cluster(s, opts(32, cfg));
  // Rank 0 is co-located with server 0: pure device path.
  const auto local = cluster.write_path(0, 0);
  EXPECT_EQ(local.size(), 1u);
  // Rank 16 is on instance 1: two NIC hops plus the device.
  const auto remote = cluster.write_path(16, 0);
  EXPECT_EQ(remote.size(), 3u);
}

TEST(ClusterModelTest, EbsPathsTransitServerNic) {
  sim::Simulator s;
  IoConfig cfg = IoConfig::baseline();  // dedicated NFS over EBS
  ClusterModel cluster(s, opts(32, cfg));
  // Remote write: client tx, server rx, server tx (to EBS), volume.
  const auto w = cluster.write_path(0, 0);
  EXPECT_EQ(w.size(), 4u);
  const auto r = cluster.read_path(0, 0);
  EXPECT_EQ(r.size(), 4u);
}

TEST(ClusterModelTest, CommPathEmptyWithinInstance) {
  sim::Simulator s;
  ClusterModel cluster(s, opts(32, IoConfig::baseline()));
  EXPECT_TRUE(cluster.comm_path(0, 1).empty());
  EXPECT_EQ(cluster.comm_path(0, 16).size(), 2u);
}

TEST(ClusterModelTest, CostFollowsEquationOne) {
  sim::Simulator s;
  IoConfig cfg = IoConfig::baseline();
  ClusterModel cluster(s, opts(32, cfg));
  // 2 compute + 1 dedicated I/O instance, cc2 at $2.40/h.
  EXPECT_EQ(cluster.num_instances(), 3);
  EXPECT_NEAR(cluster.cost_of(kHour), 3 * 2.40, 1e-9);
  EXPECT_NEAR(cluster.cost_of(90.0), 3 * 2.40 * 90.0 / 3600.0, 1e-9);
}

TEST(ClusterModelTest, PartTimeComputeTaxApplies) {
  sim::Simulator s;
  IoConfig cfg;
  cfg.fs = FileSystemType::kPvfs2;
  cfg.io_servers = 1;
  cfg.placement = Placement::kPartTime;
  cfg.device = storage::DeviceType::kEphemeral;
  ClusterModel cluster(s, opts(32, cfg));
  // Rank 0 shares its instance with the server; rank 16 does not.
  EXPECT_GT(cluster.compute_time(10.0, 0), cluster.compute_time(10.0, 16));
}

TEST(ClusterModelTest, Cc1IsSlowerPerCore) {
  sim::Simulator s1, s2;
  IoConfig cfg1 = IoConfig::baseline();
  cfg1.instance = InstanceType::kCc1_4xlarge;
  ClusterModel c1(s1, opts(32, cfg1));
  ClusterModel c2(s2, opts(32, IoConfig::baseline()));
  EXPECT_GT(c1.compute_time(10.0, 0), c2.compute_time(10.0, 0));
}

TEST(ClusterModelTest, JitterPerturbsCapacityDeterministically) {
  sim::Simulator s1, s2, s3;
  auto o = opts(32, IoConfig::baseline());
  o.jitter_sigma = 0.1;
  o.seed = 7;
  ClusterModel a(s1, o), b(s2, o);
  o.seed = 8;
  ClusterModel c(s3, o);
  EXPECT_DOUBLE_EQ(a.network().capacity(a.nic_tx(0)),
                   b.network().capacity(b.nic_tx(0)));
  EXPECT_NE(a.network().capacity(a.nic_tx(0)),
            c.network().capacity(c.nic_tx(0)));
}

TEST(ClusterModelTest, RejectsInvalidConfig) {
  sim::Simulator s;
  IoConfig bad = IoConfig::baseline();
  bad.io_servers = 3;  // NFS with 3 servers
  EXPECT_THROW(ClusterModel(s, opts(32, bad)), Error);
}

TEST(FailureInjectorTest, OutageStallsTransferThenRecovers) {
  sim::Simulator s;
  IoConfig cfg;
  cfg.fs = FileSystemType::kPvfs2;
  cfg.io_servers = 1;
  cfg.placement = Placement::kDedicated;
  cfg.device = storage::DeviceType::kEphemeral;
  ClusterModel cluster(s, opts(16, cfg));
  FailureInjector inj(cluster);

  SimTime done_no_fail = 0.0;
  {
    sim::Simulator s2;
    ClusterModel c2(s2, opts(16, cfg));
    SimTime done = -1;
    c2.network().start_flow(c2.write_path(0, 0), 100.0 * MiB,
                            [&] { done = s2.now(); });
    s2.run();
    done_no_fail = done;
    EXPECT_GT(done_no_fail, 0.0);
  }

  SimTime done = -1;
  cluster.network().start_flow(cluster.write_path(0, 0), 100.0 * MiB,
                               [&] { done = s.now(); });
  FaultSpec outage;
  outage.at = 0.05;
  outage.duration = 10.0;
  inj.inject(outage);  // device-side outage of server 0
  s.run();
  EXPECT_NEAR(done, done_no_fail + 10.0, 0.1);
  EXPECT_EQ(inj.scheduled_outages(), 1);
}

TEST(FailureInjectorTest, RandomOutagesAreSeeded) {
  sim::Simulator s;
  IoConfig cfg;
  cfg.fs = FileSystemType::kPvfs2;
  cfg.io_servers = 4;
  cfg.placement = Placement::kDedicated;
  cfg.device = storage::DeviceType::kEphemeral;
  ClusterModel cluster(s, opts(32, cfg));
  FailureInjector inj(cluster);
  Rng rng(99);
  FaultModel model;
  model.outages_per_hour = 60.0;
  inj.inject_random(rng, model, /*horizon=*/kHour);
  EXPECT_GT(inj.scheduled_outages(), 20);
  EXPECT_LT(inj.scheduled_outages(), 180);
  s.run();  // all suppress/restore pairs must balance without throwing
}

IoConfig chaos_config(int servers = 1) {
  IoConfig cfg;
  cfg.fs = FileSystemType::kPvfs2;
  cfg.io_servers = servers;
  cfg.placement = Placement::kDedicated;
  cfg.device = storage::DeviceType::kEphemeral;
  cfg.stripe_size = 1.0 * MiB;
  return cfg;
}

/// Time for a 100 MiB write on server 0 of a fault-free cluster.
SimTime clean_write_time(const IoConfig& cfg, int np = 16) {
  sim::Simulator s;
  ClusterModel cluster(s, opts(np, cfg));
  SimTime done = -1;
  cluster.network().start_flow(cluster.write_path(0, 0), 100.0 * MiB,
                               [&] { done = s.now(); });
  s.run();
  return done;
}

TEST(FailureInjectorTest, BrownoutSlowsButDoesNotStall) {
  const auto cfg = chaos_config();
  const SimTime clean = clean_write_time(cfg);

  sim::Simulator s;
  ClusterModel cluster(s, opts(16, cfg));
  FailureInjector inj(cluster);
  SimTime done = -1;
  cluster.network().start_flow(cluster.write_path(0, 0), 100.0 * MiB,
                               [&] { done = s.now(); });
  FaultSpec spec;
  spec.kind = FaultKind::kBrownout;
  spec.server = 0;
  spec.at = 0.0;
  spec.duration = 1000.0;  // covers the whole transfer
  spec.fraction = 0.5;
  inj.inject(spec);
  s.run();
  // Degraded capacity: strictly slower than clean, but it *finishes*
  // inside the window — a brownout is interference, not an outage.
  EXPECT_GT(done, clean * 1.2);
  EXPECT_LT(done, 1000.0);
}

TEST(FailureInjectorTest, StragglerSlowsTheDevice) {
  const auto cfg = chaos_config();
  const SimTime clean = clean_write_time(cfg);

  sim::Simulator s;
  ClusterModel cluster(s, opts(16, cfg));
  FailureInjector inj(cluster);
  SimTime done = -1;
  cluster.network().start_flow(cluster.write_path(0, 0), 100.0 * MiB,
                               [&] { done = s.now(); });
  FaultSpec spec;
  spec.kind = FaultKind::kStraggler;
  spec.server = 0;
  spec.at = 0.0;
  spec.duration = 4000.0;
  spec.fraction = 0.25;
  inj.inject(spec);
  s.run();
  EXPECT_GT(done, clean * 1.5);  // a slow disk, not a dead one
  EXPECT_LT(done, 4000.0);
}

TEST(FailureInjectorTest, CorrelatedOutageStallsEveryServer) {
  const auto cfg = chaos_config(4);
  sim::Simulator s;
  ClusterModel cluster(s, opts(32, cfg));
  FailureInjector inj(cluster);

  std::vector<SimTime> clean(4, -1.0);
  {
    sim::Simulator s2;
    ClusterModel c2(s2, opts(32, cfg));
    for (int srv = 0; srv < 4; ++srv) {
      c2.network().start_flow(c2.write_path(0, srv), 50.0 * MiB,
                              [&clean, srv, &s2] { clean[srv] = s2.now(); });
    }
    s2.run();
  }

  std::vector<SimTime> done(4, -1.0);
  for (int srv = 0; srv < 4; ++srv) {
    cluster.network().start_flow(cluster.write_path(0, srv), 50.0 * MiB,
                                 [&done, srv, &s] { done[srv] = s.now(); });
  }
  inj.inject_correlated(/*at=*/0.05, /*duration=*/10.0);
  s.run();
  for (int srv = 0; srv < 4; ++srv) {
    EXPECT_NEAR(done[srv], clean[srv] + 10.0, 0.1) << "server " << srv;
  }
}

TEST(FailureInjectorTest, PermanentLossNeverRestores) {
  const auto cfg = chaos_config();
  sim::Simulator s;
  ClusterModel cluster(s, opts(16, cfg));
  FailureInjector inj(cluster);
  bool completed = false;
  cluster.network().start_flow(cluster.write_path(0, 0), 100.0 * MiB,
                               [&] { completed = true; });
  FaultSpec spec;
  spec.kind = FaultKind::kPermanentLoss;
  spec.server = 0;
  spec.at = 0.01;
  inj.inject(spec);
  s.run();  // queue drains; the flow is stuck at rate zero forever
  EXPECT_FALSE(completed);
  EXPECT_EQ(cluster.network().active_flows(), 1u);
  EXPECT_DOUBLE_EQ(
      cluster.network().capacity(cluster.device_write_resource(0)), 0.0);
}

// The tentpole regression: arbitrarily overlapped faults of every kind
// must hand back the *exact* original capacity — including the jittered
// capacities ClusterModel sets up — because effective capacity is always
// recomputed from the stored original, never patched incrementally.
TEST(FailureInjectorTest, OverlappingFaultsRestoreExactJitteredCapacity) {
  sim::Simulator s;
  auto o = opts(16, chaos_config());
  o.jitter_sigma = 0.1;  // non-round capacities: catch additive restore
  o.seed = 42;
  ClusterModel cluster(s, o);
  const auto dev_w = cluster.device_write_resource(0);
  const auto dev_r = cluster.device_read_resource(0);
  const auto nic = cluster.nic_tx(cluster.instance_of_server(0));
  const double orig_w = cluster.network().capacity(dev_w);
  const double orig_r = cluster.network().capacity(dev_r);
  const double orig_nic = cluster.network().capacity(nic);

  FailureInjector inj(cluster);
  // Overlap outages, brownouts and a straggler on the same server, with
  // staggered windows: [1,11] outage, [5,25] outage, [3,30] brownout,
  // [2,40] straggler, plus a NIC outage [4,12].
  FaultSpec f;
  f.server = 0;
  f.kind = FaultKind::kOutage;
  f.at = 1.0;
  f.duration = 10.0;
  inj.inject(f);
  f.at = 5.0;
  f.duration = 20.0;
  inj.inject(f);
  f.kind = FaultKind::kBrownout;
  f.at = 3.0;
  f.duration = 27.0;
  f.fraction = 0.5;
  inj.inject(f);
  f.kind = FaultKind::kStraggler;
  f.at = 2.0;
  f.duration = 38.0;
  f.fraction = 0.3;
  inj.inject(f);
  f.kind = FaultKind::kOutage;
  f.at = 4.0;
  f.duration = 8.0;
  f.hit_nic = true;
  inj.inject(f);

  s.run_until(20.0);
  // Mid-overlap the device is still suppressed by the second outage.
  EXPECT_DOUBLE_EQ(cluster.network().capacity(dev_w), 0.0);

  s.run();
  // Bit-exact restores, not EXPECT_NEAR: the restore path must reproduce
  // the jittered originals exactly.
  EXPECT_EQ(cluster.network().capacity(dev_w), orig_w);
  EXPECT_EQ(cluster.network().capacity(dev_r), orig_r);
  EXPECT_EQ(cluster.network().capacity(nic), orig_nic);
}

TEST(FaultModelTest, AnyCoversEveryRateIncludingPreemptions) {
  FaultModel m;
  EXPECT_FALSE(m.any());  // the all-zero default is injector-free
  m.preemptions_per_hour = 1.0;
  EXPECT_TRUE(m.any());
  EXPECT_TRUE(m.valid());
}

TEST(FaultModelTest, ValidityRules) {
  FaultModel m;
  EXPECT_TRUE(m.valid());
  // Outage-shaping probabilities without an outage rate are config
  // errors, not silent no-ops.
  m.correlated_outage_probability = 0.5;
  EXPECT_FALSE(m.valid());
  m = {};
  m.permanent_loss_probability = 0.5;
  EXPECT_FALSE(m.valid());
  m = {};
  m.outages_per_hour = 1.0;
  m.correlated_outage_probability = 0.5;
  m.permanent_loss_probability = 0.5;
  EXPECT_TRUE(m.valid());
  m = {};
  m.preemptions_per_hour = -1.0;
  EXPECT_FALSE(m.valid());
  m = {};
  m.preemptions_per_hour = 2.0;
  m.preemption_notice = -1.0;
  EXPECT_FALSE(m.valid());
}

// A preemption takes the whole server — NIC and device — after the
// notice window, and the notice hook fires first with the scheduled
// reclaim time so checkpoint managers can react.
TEST(FailureInjectorTest, PreemptionTakesWholeServerUntilRestored) {
  sim::Simulator s;
  auto o = opts(16, chaos_config());
  o.jitter_sigma = 0.08;  // exact-restore check needs jittered originals
  o.seed = 3;
  ClusterModel cluster(s, o);
  const auto dev_w = cluster.device_write_resource(0);
  const auto nic = cluster.nic_tx(cluster.instance_of_server(0));
  const double orig_dev = cluster.network().capacity(dev_w);
  const double orig_nic = cluster.network().capacity(nic);

  FailureInjector inj(cluster);
  SimTime notice_at = -1.0, notice_reclaim_at = -1.0, reclaimed_at = -1.0;
  PreemptionHooks hooks;
  hooks.on_notice = [&](int server, SimTime reclaim_at) {
    EXPECT_EQ(server, 0);
    notice_at = s.now();
    notice_reclaim_at = reclaim_at;
  };
  hooks.on_reclaim = [&](int server) {
    EXPECT_EQ(server, 0);
    reclaimed_at = s.now();
  };
  inj.set_preemption_hooks(std::move(hooks));

  FaultSpec spec;
  spec.kind = FaultKind::kPreemption;
  spec.server = 0;
  spec.at = 1.0;
  spec.notice = 2.0;
  inj.inject(spec);

  s.run_until(4.0);
  EXPECT_DOUBLE_EQ(notice_at, 1.0);
  EXPECT_DOUBLE_EQ(notice_reclaim_at, 3.0);
  EXPECT_DOUBLE_EQ(reclaimed_at, 3.0);
  // The whole server is dark: device and NIC.
  EXPECT_DOUBLE_EQ(cluster.network().capacity(dev_w), 0.0);
  EXPECT_DOUBLE_EQ(cluster.network().capacity(nic), 0.0);

  // A replacement comes online: exact jittered originals return.
  inj.restore_server(0);
  EXPECT_EQ(cluster.network().capacity(dev_w), orig_dev);
  EXPECT_EQ(cluster.network().capacity(nic), orig_nic);
  // Restoring a server that is not preempted is harmless.
  inj.restore_server(0);
  EXPECT_EQ(cluster.network().capacity(dev_w), orig_dev);
}

// Without restore_server() a preemption behaves like a whole-server
// permanent loss: in-flight transfers stall forever.
TEST(FailureInjectorTest, PreemptionWithoutRestoreStallsForever) {
  sim::Simulator s;
  ClusterModel cluster(s, opts(16, chaos_config()));
  FailureInjector inj(cluster);
  bool completed = false;
  cluster.network().start_flow(cluster.write_path(0, 0), 100.0 * MiB,
                               [&] { completed = true; });
  FaultSpec spec;
  spec.kind = FaultKind::kPreemption;
  spec.server = 0;
  spec.at = 0.01;
  spec.notice = 0.05;  // reclaim lands well before the transfer finishes
  inj.inject(spec);
  s.run();
  EXPECT_FALSE(completed);
  EXPECT_EQ(cluster.network().active_flows(), 1u);
}

// cancel_pending() force-restores a reclaimed server, and a straggling
// restore_server() afterwards (e.g. a replacement acquired just as the
// job finished) must not double-restore.
TEST(FailureInjectorTest, LateRestoreAfterCancelPendingIsANoOp) {
  sim::Simulator s;
  auto o = opts(16, chaos_config());
  o.jitter_sigma = 0.08;
  o.seed = 11;
  ClusterModel cluster(s, o);
  const auto dev_w = cluster.device_write_resource(0);
  const double orig = cluster.network().capacity(dev_w);

  FailureInjector inj(cluster);
  FaultSpec spec;
  spec.kind = FaultKind::kPreemption;
  spec.server = 0;
  spec.at = 1.0;
  spec.notice = 1.0;
  inj.inject(spec);
  s.run_until(3.0);
  EXPECT_DOUBLE_EQ(cluster.network().capacity(dev_w), 0.0);

  inj.cancel_pending();
  EXPECT_EQ(cluster.network().capacity(dev_w), orig);
  inj.restore_server(0);
  EXPECT_EQ(cluster.network().capacity(dev_w), orig);
}

TEST(FailureInjectorTest, CancelPendingRestoresAndSilencesTheSchedule) {
  sim::Simulator s;
  auto o = opts(16, chaos_config());
  o.jitter_sigma = 0.08;
  o.seed = 5;
  ClusterModel cluster(s, o);
  const auto dev_w = cluster.device_write_resource(0);
  const double orig = cluster.network().capacity(dev_w);

  FailureInjector inj(cluster);
  FaultSpec f;
  f.server = 0;
  f.at = 5.0;
  f.duration = 10.0;  // active at t=7
  inj.inject(f);
  f.at = 50.0;  // entirely in the future at t=7
  inj.inject(f);

  s.run_until(7.0);
  EXPECT_DOUBLE_EQ(cluster.network().capacity(dev_w), 0.0);

  // Job "finished" at t=7: cancel the restore of the active outage plus
  // both events of the future one, and force-restore the capacity.
  const std::size_t cancelled = inj.cancel_pending();
  EXPECT_GE(cancelled, 3u);
  EXPECT_EQ(cluster.network().capacity(dev_w), orig);

  // Nothing fires later: the capacity stays at its exact original.
  const auto executed_before = s.events_executed();
  s.run();
  EXPECT_EQ(cluster.network().capacity(dev_w), orig);
  EXPECT_EQ(s.events_executed(), executed_before);
}

}  // namespace
}  // namespace acic::cloud
