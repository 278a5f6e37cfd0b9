// Property-based sweeps over randomized workloads and configurations:
// conservation, monotonicity, determinism and capacity invariants that
// must hold for every point of the exploration space.
#include <gtest/gtest.h>

#include <algorithm>

#include "acic/common/rng.hpp"
#include "acic/core/paramspace.hpp"
#include "acic/io/runner.hpp"
#include "acic/ior/ior.hpp"
#include "acic/simcore/flow.hpp"

namespace acic {
namespace {

/// Draw a random valid point of the exploration space (moderate sizes so
/// a test sweep stays fast).
core::Point random_point(Rng& rng) {
  core::Point p{};
  for (const auto& d : core::ParamSpace::dimensions()) {
    const auto& values = d.values;
    p[d.dim] = values[rng.uniform_index(values.size())];
  }
  // Keep run times bounded: moderate process counts / volumes.
  p[core::kNumProcs] = std::min(p[core::kNumProcs], 64.0);
  p[core::kNumIoProcs] = std::min(p[core::kNumIoProcs], 64.0);
  p[core::kDataSize] = std::min(p[core::kDataSize], 32.0 * MiB);
  p[core::kIterations] = std::min(p[core::kIterations], 10.0);
  return core::ParamSpace::repaired(p);
}

class RandomSpacePointTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RandomSpacePointTest, ConservationAndSanity) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 4; ++trial) {
    const auto p = random_point(rng);
    const auto w = core::ParamSpace::workload_of(p);
    const auto cfg = core::ParamSpace::config_of(p);
    io::RunOptions o;
    o.jitter_sigma = 0.0;
    const auto r = ior::run_ior(w, cfg, o);
    SCOPED_TRACE(core::ParamSpace::describe(p));

    // Time sanity.
    EXPECT_GT(r.total_time, 0.0);
    EXPECT_LE(r.io_time, r.total_time + 1e-9);
    // Byte conservation: all payload reaches the file system (within
    // the HDF5/netCDF inflation and header bounds).
    EXPECT_GE(r.fs_bytes, w.total_bytes() * 0.999);
    EXPECT_LE(r.fs_bytes, w.total_bytes() * 1.05 + 64.0 * MiB);
    // Billing is consistent with Eq. (1).
    EXPECT_NEAR(r.cost,
                r.total_time * r.num_instances *
                    per_hour(cloud::instance_spec(cfg.instance)
                                 .price_per_hour),
                1e-9);
  }
}

TEST_P(RandomSpacePointTest, DeterministicPerSeed) {
  Rng rng(GetParam() ^ 0xabcdULL);
  const auto p = random_point(rng);
  const auto w = core::ParamSpace::workload_of(p);
  const auto cfg = core::ParamSpace::config_of(p);
  io::RunOptions o;
  o.seed = GetParam();
  const auto a = ior::run_ior(w, cfg, o);
  const auto b = ior::run_ior(w, cfg, o);
  EXPECT_DOUBLE_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.sim_events, b.sim_events);
}

TEST_P(RandomSpacePointTest, TimeMonotoneInDataVolume) {
  Rng rng(GetParam() ^ 0x5151ULL);
  const auto p = random_point(rng);
  auto w = core::ParamSpace::workload_of(p);
  const auto cfg = core::ParamSpace::config_of(p);
  io::RunOptions o;
  o.jitter_sigma = 0.0;
  const auto small = ior::run_ior(w, cfg, o);
  w.data_size *= 4.0;
  const auto big = ior::run_ior(w, cfg, o);
  EXPECT_GE(big.total_time, small.total_time * 0.999)
      << core::ParamSpace::describe(p);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSpacePointTest,
                         ::testing::Range<std::uint64_t>(1, 9));

// Capacity invariant: instantaneous max-min rates never oversubscribe a
// resource, across random flow populations.
class FlowCapacityTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowCapacityTest, RatesRespectEveryCapacity) {
  Rng rng(GetParam());
  sim::Simulator s;
  sim::FlowNetwork net(s);
  std::vector<sim::ResourceId> resources;
  std::vector<double> caps;
  for (int i = 0; i < 6; ++i) {
    const double cap = rng.uniform(10.0, 200.0);
    resources.push_back(net.add_resource("r" + std::to_string(i), cap));
    caps.push_back(cap);
  }
  struct Live {
    sim::FlowId id;
    sim::FlowPath path;
  };
  std::vector<Live> flows;
  for (int f = 0; f < 24; ++f) {
    sim::FlowPath path;
    const std::size_t hops = 1 + rng.uniform_index(3);
    for (std::size_t h = 0; h < hops; ++h) {
      const auto r = resources[rng.uniform_index(resources.size())];
      if (std::find(path.begin(), path.end(), r) == path.end()) {
        path.push_back(r);
      }
    }
    const auto id = net.start_flow(path, 1e7, nullptr);
    flows.push_back({id, path});
  }
  // Inspect the allocation immediately after the last admission.
  std::vector<double> load(resources.size(), 0.0);
  for (const auto& f : flows) {
    const double rate = net.flow_rate(f.id);
    EXPECT_GE(rate, 0.0);
    for (auto r : f.path) load[r] += rate;
  }
  for (std::size_t i = 0; i < resources.size(); ++i) {
    EXPECT_LE(load[i], caps[i] * (1.0 + 1e-9)) << "resource " << i;
  }
  // And the allocation is work-conserving: every flow got a positive
  // rate (all capacities are positive).
  for (const auto& f : flows) EXPECT_GT(net.flow_rate(f.id), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowCapacityTest,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace acic
