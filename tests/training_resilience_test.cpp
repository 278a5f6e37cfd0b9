// Resilient training sweeps: chaos-corrupted measurement campaigns must
// still produce a database whose trained model agrees with the fault-free
// one (median-of-k + MAD outlier rejection absorb the noise), repeatedly
// failing configurations must be quarantined instead of poisoning the
// database, and the per-sample provenance must survive CSV round-trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "acic/common/stats.hpp"
#include "acic/core/predictor.hpp"
#include "acic/core/training.hpp"
#include "acic/io/workload.hpp"

namespace acic::core {
namespace {

std::vector<int> identity_order() {
  std::vector<int> order(static_cast<std::size_t>(kNumDims));
  std::iota(order.begin(), order.end(), 0);
  return order;
}

TrainingPlan small_plan() {
  TrainingPlan plan;
  plan.dim_order = identity_order();
  plan.top_dims = 8;
  plan.max_samples = 60;
  plan.seed = 11;
  return plan;
}

io::Workload probe_traits() {
  io::Workload w;
  w.num_processes = 64;
  w.num_io_processes = 64;
  w.interface = io::IoInterface::kMpiIo;
  w.iterations = 4;
  w.data_size = 64.0 * MiB;
  w.request_size = 4.0 * MiB;
  w.op = io::OpMix::kWrite;
  w.collective = true;
  w.file_shared = true;
  return w;
}

TEST(SweepResilienceTest, LegacyDefaultsReproduceTheSingleShotSweep) {
  TrainingDatabase legacy, resilient;
  auto plan = small_plan();
  plan.max_samples = 20;  // determinism probe, not a model-quality sweep
  collect_training_data(legacy, plan);
  auto armed = plan;  // defaults: repeats=1, attempts=1, no faults
  armed.resilience = SweepResilience{};
  collect_training_data(resilient, armed);
  ASSERT_EQ(legacy.size(), resilient.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(legacy.samples()[i].time, resilient.samples()[i].time);
    EXPECT_EQ(legacy.samples()[i].cost, resilient.samples()[i].cost);
    EXPECT_EQ(legacy.samples()[i].repeats, 1);
    EXPECT_EQ(legacy.samples()[i].rejected, 0);
  }
}

// The acceptance regression: a sweep where a sizeable share of the runs
// are brownout/straggler-corrupted must still teach CART the same best
// configuration as the fault-free sweep — median-of-3 with MAD rejection
// keeps the labels honest.
TEST(SweepResilienceTest, CorruptedSweepAgreesWithCleanSweepOnTopConfig) {
  TrainingDatabase clean;
  const auto plan = small_plan();
  const auto clean_stats = collect_training_data(clean, plan);
  EXPECT_EQ(clean_stats.failed_runs, 0u);

  TrainingDatabase noisy;
  auto chaos = plan;
  chaos.resilience.repeats = 3;
  chaos.resilience.max_attempts = 2;
  chaos.resilience.fault_model.brownouts_per_hour = 20.0;
  chaos.resilience.fault_model.brownout_fraction = 0.3;
  chaos.resilience.fault_model.stragglers_per_hour = 10.0;
  chaos.resilience.retry.enabled = true;
  chaos.resilience.retry.request_timeout = 10.0;
  chaos.resilience.retry.max_attempts = 3;
  chaos.resilience.watchdog_sim_time = 7200.0;
  const auto noisy_stats = collect_training_data(noisy, chaos);

  ASSERT_GT(noisy.size(), 0u);
  // The chaos sweep actually exercised the resilience machinery.
  std::size_t multi_repeat = 0;
  for (const auto& s : noisy.samples()) {
    EXPECT_GE(s.repeats, 1);
    if (s.repeats > 1) ++multi_repeat;
  }
  EXPECT_GT(multi_repeat, 0u);
  // The chaos runs cost more machine time than the clean ones (three
  // repeats plus fault stalls) — a cheap sanity check that the fault
  // model was actually armed.
  EXPECT_GT(noisy_stats.runs, clean_stats.runs);

  const Acic clean_model(clean, Objective::kPerformance);
  const Acic noisy_model(noisy, Objective::kPerformance);
  const auto traits = probe_traits();
  const auto clean_top = clean_model.recommend(traits, 1);
  const auto noisy_top = noisy_model.recommend(traits, 1);
  ASSERT_EQ(clean_top.size(), 1u);
  ASSERT_EQ(noisy_top.size(), 1u);
  EXPECT_EQ(clean_top[0].config.label(), noisy_top[0].config.label());
}

// A configuration whose every attempt fails must be quarantined — the
// sweep completes, reports it, and never writes a poisoned sample.
TEST(SweepResilienceTest, UnmeasurablePointsAreQuarantinedNotInserted) {
  TrainingDatabase db;
  TrainingPlan plan;
  plan.dim_order = identity_order();
  plan.top_dims = 6;
  plan.max_samples = 6;
  plan.seed = 5;
  plan.resilience.repeats = 1;
  plan.resilience.max_attempts = 2;
  plan.resilience.fault_model.outages_per_hour = 1800.0;
  plan.resilience.fault_model.permanent_loss_probability = 1.0;
  plan.resilience.watchdog_sim_time = 120.0;  // fail fast, no retries
  const auto stats = collect_training_data(db, plan);
  EXPECT_GT(stats.failed_runs, 0u);
  EXPECT_GT(stats.quarantined, 0u);
  EXPECT_EQ(stats.quarantined_labels.size(), stats.quarantined);
  EXPECT_EQ(db.size(), 0u);  // nothing usable was measured
  for (const auto& label : stats.quarantined_labels) {
    EXPECT_NE(label.find('|'), std::string::npos) << label;
  }
}

TEST(TrainingProvenance, SurvivesCsvRoundTrip) {
  TrainingDatabase db;
  TrainingSample s;
  s.point = default_point();
  s.time = 50.0;
  s.cost = 5.0;
  s.baseline_time = 100.0;
  s.baseline_cost = 10.0;
  s.repeats = 3;
  s.rejected = 1;
  s.retries = 2;
  db.insert(s);
  const auto loaded = TrainingDatabase::from_csv(db.to_csv());
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded.samples()[0].repeats, 3);
  EXPECT_EQ(loaded.samples()[0].rejected, 1);
  EXPECT_EQ(loaded.samples()[0].retries, 2);
}

TEST(MadStats, MedianAbsoluteDeviation) {
  EXPECT_DOUBLE_EQ(mad_of({}), 0.0);
  EXPECT_DOUBLE_EQ(mad_of({3.0}), 0.0);
  EXPECT_DOUBLE_EQ(mad_of({1.0, 1.0, 1.0}), 0.0);
  EXPECT_DOUBLE_EQ(mad_of({1.0, 2.0, 3.0}), 1.0);
  EXPECT_DOUBLE_EQ(mad_of({1.0, 2.0, 100.0}), 1.0);  // robust to the spike
}

TEST(MadStats, RejectOutliersDropsTheSpikeOnly) {
  const auto f = reject_outliers({10.0, 10.2, 9.9, 10.1, 50.0});
  ASSERT_EQ(f.keep.size(), 5u);
  EXPECT_EQ(f.rejected, 1u);
  EXPECT_TRUE(f.keep[0] && f.keep[1] && f.keep[2] && f.keep[3]);
  EXPECT_FALSE(f.keep[4]);
}

TEST(MadStats, ZeroMadKeepsEverything) {
  const auto f = reject_outliers({5.0, 5.0, 5.0, 5.0});
  EXPECT_EQ(f.rejected, 0u);
  for (const bool k : f.keep) EXPECT_TRUE(k);
}

}  // namespace
}  // namespace acic::core
