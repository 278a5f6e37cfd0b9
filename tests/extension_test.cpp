// Tests for the expandability mechanisms: explored-dimension selection,
// value overrides (SSD rollout), and the extended candidate enumeration.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "acic/common/error.hpp"
#include "acic/core/training.hpp"

namespace acic::core {
namespace {

std::vector<int> identity_order() {
  std::vector<int> order;
  for (int d = 0; d < kNumDims; ++d) order.push_back(d);
  return order;
}

TEST(ExploredDims, SystemDimsAlwaysFirst) {
  // Order that ranks every workload dim above every system dim.
  std::vector<int> order = {kDataSize,   kIterations, kRequestSize,
                            kNumProcs,   kNumIoProcs, kOpType,
                            kCollective, kFileSharing, kInterface,
                            kDevice,     kFileSystem, kInstanceType,
                            kIoServers,  kPlacement,  kStripeSize};
  const auto dims = explored_dims(order, 8);
  ASSERT_EQ(dims.size(), 8u);
  // The six system dimensions are present regardless of their rank.
  for (Dim d : {kDevice, kFileSystem, kInstanceType, kIoServers,
                kPlacement, kStripeSize}) {
    EXPECT_NE(std::find(dims.begin(), dims.end(), d), dims.end());
  }
  // The two remaining slots take the top-ranked workload dims.
  EXPECT_NE(std::find(dims.begin(), dims.end(), kDataSize), dims.end());
  EXPECT_NE(std::find(dims.begin(), dims.end(), kIterations), dims.end());
}

TEST(ExploredDims, RejectsTooFewDimsForSystemMode) {
  EXPECT_THROW(explored_dims(identity_order(), 5), Error);
  EXPECT_NO_THROW(explored_dims(identity_order(), 6));
}

TEST(ValueOverridesTest, FindAndValuesOf) {
  ParamSpace::ValueOverrides ov;
  ov.entries.push_back({kDevice, {0.0, 1.0, 2.0}});
  EXPECT_EQ(ov.find(kDevice)->size(), 3u);
  EXPECT_EQ(ov.find(kStripeSize), nullptr);
  EXPECT_EQ(ParamSpace::values_of(kDevice, &ov).size(), 3u);
  EXPECT_EQ(ParamSpace::values_of(kDevice, nullptr).size(), 2u);
}

TEST(ValueOverridesTest, RepairSnapsToExtendedGrid) {
  ParamSpace::ValueOverrides ov;
  ov.entries.push_back({kDevice, {0.0, 1.0, 2.0}});
  Point p = default_point();
  p[kDevice] = 2.0;  // SSD
  const auto without = ParamSpace::repaired(p);
  EXPECT_DOUBLE_EQ(without[kDevice], 1.0);  // snapped away on the old grid
  const auto with = ParamSpace::repaired(p, &ov);
  EXPECT_DOUBLE_EQ(with[kDevice], 2.0);  // preserved on the extended grid
}

TEST(ValueOverridesTest, SsdDecodesAndEncodes) {
  Point p = default_point();
  p[kDevice] = 2.0;
  const auto cfg = ParamSpace::config_of(p);
  EXPECT_EQ(cfg.device, storage::DeviceType::kSsd);
  const auto back =
      ParamSpace::encode(cfg, ParamSpace::workload_of(default_point()));
  EXPECT_DOUBLE_EQ(back[kDevice], 2.0);
}

TEST(ExtendedCandidates, IncludeSsdVariants) {
  const auto base = cloud::IoConfig::enumerate_candidates();
  const auto ext = cloud::IoConfig::enumerate_candidates_with_ssd();
  EXPECT_EQ(base.size(), 56u);
  EXPECT_EQ(ext.size(), 84u);  // 3 devices instead of 2
  int ssd = 0;
  std::set<std::string> labels;
  for (const auto& c : ext) {
    EXPECT_TRUE(c.valid());
    labels.insert(c.label());
    ssd += (c.device == storage::DeviceType::kSsd);
  }
  EXPECT_EQ(ssd, 28);
  EXPECT_EQ(labels.size(), ext.size());
}

TEST(ExtendedCandidates, OverrideTrainingPlanSamplesSsdPoints) {
  // A plan with the device override must generate at least one SSD
  // point.  We only check the *sampling*, not full simulation: enumerate
  // via the same code path with tiny limits.
  TrainingPlan plan;
  plan.dim_order = identity_order();
  plan.top_dims = 6;  // system dims only: a tiny, fast cartesian space
  plan.max_samples = 400;
  plan.value_overrides.entries.push_back({kDevice, {0.0, 1.0, 2.0}});
  TrainingDatabase db;
  collect_training_data(db, plan);
  bool saw_ssd = false;
  for (const auto& s : db.samples()) {
    if (s.point[kDevice] == 2.0) saw_ssd = true;
  }
  EXPECT_TRUE(saw_ssd);
}

}  // namespace
}  // namespace acic::core
