// Integration tests for the ACIC core: training collection, the
// predictor, PB ranking, space walking and the manual policies.
#include <gtest/gtest.h>

#include <filesystem>
#include <cmath>
#include <limits>
#include <set>

#include "acic/apps/apps.hpp"
#include "acic/common/error.hpp"
#include "acic/core/manual.hpp"
#include "acic/core/predictor.hpp"
#include "acic/core/ranking.hpp"
#include "acic/core/walker.hpp"
#include "acic/common/stats.hpp"
#include "acic/io/runner.hpp"
#include "acic/ml/knn.hpp"

namespace acic::core {
namespace {

/// Small PB ranking + training database shared across tests (collecting
/// data is the expensive part, so do it once).
class AcicCoreFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    PbRankingOptions opts;
    ranking_ = new PbRankingResult(run_pb_ranking(opts));
    db_ = new TrainingDatabase();
    TrainingPlan plan;
    plan.dim_order = ranking_->importance;
    // 6 system dims + the top PB-ranked workload dims, enough to cover
    // the op-type dimension two of the four applications need.
    plan.top_dims = 12;
    plan.max_samples = 320;
    plan.seed = 11;
    stats_ = collect_training_data(*db_, plan);
  }
  static void TearDownTestSuite() {
    delete ranking_;
    delete db_;
    ranking_ = nullptr;
    db_ = nullptr;
  }

  static PbRankingResult* ranking_;
  static TrainingDatabase* db_;
  static TrainingStats stats_;
};

PbRankingResult* AcicCoreFixture::ranking_ = nullptr;
TrainingDatabase* AcicCoreFixture::db_ = nullptr;
TrainingStats AcicCoreFixture::stats_;

TEST_F(AcicCoreFixture, PbRankingScreensAllDimensionsIn32Runs) {
  EXPECT_EQ(ranking_->design.size(), 32u);
  EXPECT_EQ(ranking_->response.size(), 32u);
  EXPECT_EQ(ranking_->stats.runs, 32u);
  EXPECT_EQ(ranking_->importance.size(), static_cast<std::size_t>(kNumDims));
  // Ranks are a permutation of 1..15.
  std::set<int> ranks(ranking_->rank_of_each.begin(),
                      ranking_->rank_of_each.end());
  EXPECT_EQ(ranks.size(), static_cast<std::size_t>(kNumDims));
  EXPECT_EQ(*ranks.begin(), 1);
  EXPECT_EQ(*ranks.rbegin(), kNumDims);
}

TEST_F(AcicCoreFixture, PbRankingFindsDataSizeInfluential) {
  // The paper finds "data size" the most important dimension; our
  // substrate should at least place it in the upper half.
  EXPECT_LE(ranking_->rank_of_each[kDataSize], 7);
}

TEST_F(AcicCoreFixture, TrainingCollectsRequestedSamples) {
  EXPECT_GE(db_->size(), 250u);
  EXPECT_LE(db_->size(), 320u);
  EXPECT_GT(stats_.runs, db_->size());  // baselines included
  EXPECT_GT(stats_.money, 0.0);
  for (const auto& s : db_->samples()) {
    EXPECT_GT(s.time, 0.0);
    EXPECT_GT(s.baseline_time, 0.0);
    EXPECT_TRUE(ParamSpace::valid(s.point));
  }
}

TEST_F(AcicCoreFixture, DatabaseCsvRoundTrip) {
  const auto path = (std::filesystem::temp_directory_path() /
                     "acic_train_db.csv")
                        .string();
  db_->save(path);
  const auto loaded = TrainingDatabase::load(path);
  ASSERT_EQ(loaded.size(), db_->size());
  EXPECT_DOUBLE_EQ(loaded.samples()[0].time, db_->samples()[0].time);
  EXPECT_EQ(loaded.samples()[0].point, db_->samples()[0].point);
  std::filesystem::remove(path);
}

// Regression: a zero-time sample (corrupt CSV row) used to slip into the
// database and turn into an inf improvement label that poisoned CART
// training.  Non-positive or non-finite measurements are now rejected at
// the insert boundary.
TEST(TrainingDatabaseGuard, RejectsNonPositiveMeasurements) {
  TrainingDatabase db;
  TrainingSample good;
  good.point = default_point();
  good.time = 50.0;
  good.cost = 5.0;
  good.baseline_time = 100.0;
  good.baseline_cost = 10.0;
  EXPECT_NO_THROW(db.insert(good));

  for (auto mutate : {+[](TrainingSample& s) { s.time = 0.0; },
                      +[](TrainingSample& s) { s.time = -3.0; },
                      +[](TrainingSample& s) { s.cost = 0.0; },
                      +[](TrainingSample& s) { s.baseline_time = 0.0; },
                      +[](TrainingSample& s) { s.baseline_cost = -1.0; },
                      +[](TrainingSample& s) {
                        s.time = std::numeric_limits<double>::infinity();
                      }}) {
    TrainingSample bad = good;
    mutate(bad);
    EXPECT_THROW(db.insert(bad), Error);
  }
  EXPECT_EQ(db.size(), 1u);
}

TEST(TrainingDatabaseGuard, FromCsvRejectsCorruptRows) {
  TrainingDatabase db;
  TrainingSample s;
  s.point = default_point();
  s.time = 50.0;
  s.cost = 5.0;
  s.baseline_time = 100.0;
  s.baseline_cost = 10.0;
  db.insert(s);
  auto table = db.to_csv();

  auto zero_time = table;
  zero_time.rows[0][static_cast<std::size_t>(kNumDims)] = "0";
  EXPECT_THROW(TrainingDatabase::from_csv(zero_time), Error);

  auto mangled = table;
  mangled.rows[0][static_cast<std::size_t>(kNumDims)] = "not-a-number";
  try {
    TrainingDatabase::from_csv(mangled);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    // The old bare std::stod escaped with a useless "stod" message.
    EXPECT_NE(std::string(e.what()).find("row 1"), std::string::npos)
        << e.what();
  }

  // A number must span its whole cell: "50junk" is not a time of 50, and
  // a repeats cell of "3.9" is not 3 repeats.
  auto trailing_junk = table;
  trailing_junk.rows[0][static_cast<std::size_t>(kNumDims)] = "50junk";
  EXPECT_THROW(TrainingDatabase::from_csv(trailing_junk), Error);
  auto fractional_repeats = table;
  fractional_repeats.rows[0][static_cast<std::size_t>(kNumDims) + 5] = "3.9";
  EXPECT_THROW(TrainingDatabase::from_csv(fractional_repeats), Error);

  // std::from_chars parses "nan" and "inf"; no dimension cell may hold one.
  for (const char* non_finite : {"nan", "inf", "-inf"}) {
    auto corrupt_dim = table;
    corrupt_dim.rows[0][static_cast<std::size_t>(kDataSize)] = non_finite;
    EXPECT_THROW(TrainingDatabase::from_csv(corrupt_dim), Error)
        << non_finite;
  }

  // The header must match to_csv()'s names, not just its arity: swapped
  // time/cost names would load each value into the other's field.
  auto swapped = table;
  std::swap(swapped.header[static_cast<std::size_t>(kNumDims)],
            swapped.header[static_cast<std::size_t>(kNumDims) + 1]);
  EXPECT_THROW(TrainingDatabase::from_csv(swapped), Error);

  EXPECT_EQ(TrainingDatabase::from_csv(table).samples()[0].time, 50.0);
}

TEST_F(AcicCoreFixture, AgingDropsOldestSamples) {
  TrainingDatabase copy = *db_;
  const auto last_seq = copy.samples().back().sequence;
  copy.age_out(50);
  EXPECT_EQ(copy.size(), 50u);
  EXPECT_EQ(copy.samples().back().sequence, last_seq);
}

TEST_F(AcicCoreFixture, PredictorRanksCandidatesPlausibly) {
  Acic acic(*db_, Objective::kPerformance);
  const auto traits = apps::madbench2(64);
  const auto recs = acic.recommend(traits, 5);
  ASSERT_EQ(recs.size(), 5u);
  // Ordered by predicted improvement.
  for (std::size_t i = 1; i < recs.size(); ++i) {
    EXPECT_GE(recs[i - 1].predicted_improvement,
              recs[i].predicted_improvement);
  }
  // The predictions must discriminate (not a constant model).
  const auto all = acic.recommend(traits, 56);
  EXPECT_GT(all.front().predicted_improvement,
            all.back().predicted_improvement);
}

TEST_F(AcicCoreFixture, RecommendationActuallyBeatsMedian) {
  // End-to-end check of the paper's headline claim on one app: the
  // top recommendation's *measured* time beats the median candidate.
  Acic acic(*db_, Objective::kPerformance);
  const auto traits = apps::madbench2(64);
  const auto recs = acic.recommend(traits, 1);
  std::vector<double> all_times;
  double rec_time = 0.0;
  for (const auto& cfg : cloud::IoConfig::enumerate_candidates()) {
    io::RunOptions o;
    o.seed = 5;
    const auto r = io::run_workload(traits, cfg, o);
    all_times.push_back(r.total_time);
    if (cfg.label() == recs.front().config.label()) {
      rec_time = r.total_time;
    }
  }
  EXPECT_LT(rec_time, median_of(all_times));
}

TEST_F(AcicCoreFixture, AlternateLearnersPlugIn) {
  Acic knn(*db_, Objective::kCost,
           [] { return std::make_unique<ml::KnnRegressor>(5); });
  EXPECT_EQ(knn.model().name(), "kNN");
  const auto recs = knn.recommend(apps::flashio(64), 3);
  EXPECT_EQ(recs.size(), 3u);
}

TEST_F(AcicCoreFixture, LogResponseScreeningDiffersFromRaw) {
  // The effects are computed on log(response); on this substrate the raw
  // scale is dominated by the volume dimensions, so the two rankings
  // genuinely differ — and data size tops both.
  const auto raw_effects =
      PbDesign::effects(ranking_->design, ranking_->response, kNumDims);
  const auto raw_ranks = PbDesign::rank_of_each(raw_effects);
  EXPECT_NE(raw_ranks, ranking_->rank_of_each);
  EXPECT_EQ(ranking_->importance.front(), kDataSize);
}

TEST_F(AcicCoreFixture, PbResponsesAreFiniteAndPositive) {
  for (double r : ranking_->response) {
    EXPECT_TRUE(std::isfinite(r));
    EXPECT_GT(r, 0.0);
  }
}

TEST(SpaceWalkerTest, ProbeCacheAvoidsRepeatMeasurements) {
  int probes = 0;
  auto probe = [&](const cloud::IoConfig& c) {
    ++probes;
    return static_cast<double>(c.io_servers);
  };
  // Walk the same dimension list twice over; re-visited configs must hit
  // the walker's cache rather than re-running the probe.
  auto order = SpaceWalker::system_dims();
  order.insert(order.end(), order.begin(), order.end());
  const auto result = SpaceWalker::walk(probe, order);
  EXPECT_EQ(result.probes, probes);
  EXPECT_LE(probes, 25);
}

TEST_F(AcicCoreFixture, WalkerUsesPbRankOrder) {
  const auto order = SpaceWalker::system_dims_ranked(ranking_->importance);
  ASSERT_EQ(order.size(), 6u);
  std::set<Dim> dims(order.begin(), order.end());
  EXPECT_EQ(dims.size(), 6u);
}

TEST(SpaceWalkerTest, GreedyWalkFindsPlantedOptimum) {
  // Synthetic probe: separable objective minimised by a known config.
  auto probe = [](const cloud::IoConfig& c) {
    double v = 10.0;
    v += c.device == storage::DeviceType::kEphemeral ? 0.0 : 5.0;
    v += c.fs == cloud::FileSystemType::kPvfs2 ? 0.0 : 3.0;
    v += (4 - c.io_servers);
    v += c.placement == cloud::Placement::kDedicated ? 0.0 : 1.0;
    return v;
  };
  const auto result =
      SpaceWalker::walk(probe, SpaceWalker::system_dims());
  EXPECT_EQ(result.best.device, storage::DeviceType::kEphemeral);
  EXPECT_EQ(result.best.fs, cloud::FileSystemType::kPvfs2);
  EXPECT_EQ(result.best.io_servers, 4);
  EXPECT_EQ(result.best.placement, cloud::Placement::kDedicated);
  EXPECT_GT(result.probes, 5);
  EXPECT_LT(result.probes, 25);  // far fewer than the 56 candidates
}

TEST(SpaceWalkerTest, RandomWalkIsSeededAndValid) {
  auto probe = [](const cloud::IoConfig& c) {
    return c.io_servers == 2 ? 1.0 : 2.0;
  };
  Rng a(3), b(3);
  const auto ra = SpaceWalker::random_walk(probe, a);
  const auto rb = SpaceWalker::random_walk(probe, b);
  EXPECT_EQ(ra.best.label(), rb.best.label());
  EXPECT_TRUE(ra.best.valid());
}

TEST(ManualPolicies, ProduceValidAndDistinctConfigs) {
  for (const auto& run : apps::evaluation_suite()) {
    for (auto obj : {Objective::kPerformance, Objective::kCost}) {
      const auto u = user_top3(run.workload, obj);
      const auto d = developer_top3(run.workload, obj);
      ASSERT_EQ(u.size(), 3u);
      ASSERT_EQ(d.size(), 3u);
      for (const auto& c : u) EXPECT_TRUE(c.valid());
      for (const auto& c : d) EXPECT_TRUE(c.valid());
      EXPECT_EQ(u.front().label(), user_choice(run.workload, obj).label());
      EXPECT_EQ(d.front().label(),
                developer_choice(run.workload, obj).label());
    }
  }
}

TEST(ManualPolicies, DeveloperIsMorePatternAware) {
  // For the read-heavy large mpiBLAST the developer provisions more
  // parallel I/O than the user.
  const auto traits = apps::mpiblast(128);
  const auto u = user_choice(traits, Objective::kPerformance);
  const auto d = developer_choice(traits, Objective::kPerformance);
  EXPECT_GE(d.io_servers, u.io_servers);
}

TEST(TrainingHelpers, EnumerationGrowsExponentially) {
  std::vector<int> order = {kDataSize, kOpType,     kIoServers,
                            kNumIoProcs, kFileSystem, kStripeSize,
                            kPlacement,  kRequestSize, kInterface,
                            kDevice,     kCollective,  kInstanceType,
                            kIterations, kNumProcs,    kFileSharing};
  const double seven = enumeration_size(order, 7);
  const double ten = enumeration_size(order, 10);
  const double fifteen = enumeration_size(order, 15);
  EXPECT_GT(ten, 10.0 * seven);
  EXPECT_GT(fifteen, 10.0 * ten);
  EXPECT_DOUBLE_EQ(fifteen, ParamSpace::raw_combinations());
  EXPECT_DOUBLE_EQ(full_training_cost(order, 7, 0.05), seven * 0.05);
}

TEST(TrainingHelpers, DefaultPointIsBaselineLike) {
  const auto p = default_point();
  EXPECT_TRUE(ParamSpace::valid(p));
  EXPECT_EQ(ParamSpace::config_of(p).label(),
            cloud::IoConfig::baseline().label());
}

}  // namespace
}  // namespace acic::core
