// Tests for the storage device catalogue and RAID-0 aggregation model.
#include <gtest/gtest.h>

#include "acic/common/error.hpp"
#include "acic/storage/device.hpp"

namespace acic::storage {
namespace {

TEST(DeviceCatalogue, RelativeOrderingMatchesEc2Measurements) {
  const auto& eph = device_spec(DeviceType::kEphemeral);
  const auto& ebs = device_spec(DeviceType::kEbs);
  const auto& ssd = device_spec(DeviceType::kSsd);
  // A local spindle out-streams a standard EBS volume.
  EXPECT_GT(eph.write_bandwidth, ebs.write_bandwidth);
  EXPECT_GT(eph.read_bandwidth, ebs.read_bandwidth);
  // SSD dominates both on bandwidth and especially on latency.
  EXPECT_GT(ssd.read_bandwidth, eph.read_bandwidth);
  EXPECT_LT(ssd.per_op_latency, eph.per_op_latency / 10.0);
  // Only EBS rides the instance NIC.
  EXPECT_TRUE(ebs.network_attached);
  EXPECT_FALSE(eph.network_attached);
  EXPECT_FALSE(ssd.network_attached);
  EXPECT_STREQ(to_string(DeviceType::kEbs), "EBS");
}

TEST(Raid0, BandwidthScalesNearLinearly) {
  const auto& eph = device_spec(DeviceType::kEphemeral);
  const double one = raid0_bandwidth(eph, 1, true);
  const double four = raid0_bandwidth(eph, 4, true);
  EXPECT_DOUBLE_EQ(one, eph.write_bandwidth);
  EXPECT_GT(four, 3.0 * one);
  EXPECT_LT(four, 4.0 * one);
}

TEST(Raid0, ReadAndWriteUseRespectiveBandwidths) {
  const auto& eph = device_spec(DeviceType::kEphemeral);
  EXPECT_DOUBLE_EQ(raid0_bandwidth(eph, 1, false), eph.read_bandwidth);
  EXPECT_DOUBLE_EQ(raid0_bandwidth(eph, 1, true), eph.write_bandwidth);
}

TEST(Raid0, LatencyGrowsMildlyWithMembers) {
  const auto& eph = device_spec(DeviceType::kEphemeral);
  EXPECT_DOUBLE_EQ(raid0_latency(eph, 1), eph.per_op_latency);
  EXPECT_GT(raid0_latency(eph, 4), eph.per_op_latency);
  EXPECT_LT(raid0_latency(eph, 4), 2.0 * eph.per_op_latency);
}

TEST(Raid0, RejectsNonPositiveMemberCount) {
  const auto& eph = device_spec(DeviceType::kEphemeral);
  EXPECT_THROW(raid0_bandwidth(eph, 0, true), Error);
  EXPECT_THROW(raid0_latency(eph, 0), Error);
}

// Property sweep: aggregate bandwidth is monotone in member count for all
// device types, both directions.
class RaidMonotoneTest
    : public ::testing::TestWithParam<std::tuple<DeviceType, bool>> {};

TEST_P(RaidMonotoneTest, MonotoneInMembers) {
  const auto [type, for_write] = GetParam();
  const auto& spec = device_spec(type);
  double prev = 0.0;
  for (int members = 1; members <= 8; ++members) {
    const double bw = raid0_bandwidth(spec, members, for_write);
    EXPECT_GT(bw, prev);
    prev = bw;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDevices, RaidMonotoneTest,
    ::testing::Combine(::testing::Values(DeviceType::kEphemeral,
                                         DeviceType::kEbs, DeviceType::kSsd),
                       ::testing::Bool()));

}  // namespace
}  // namespace acic::storage
