// Tests for the flat SoA tree snapshot: bit-identical parity with the
// pointer tree, batch wiring through the predictor layer (over the full
// evaluation grid), and thread-safety of concurrent batch evaluation.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "acic/apps/apps.hpp"
#include "acic/common/error.hpp"
#include "acic/common/rng.hpp"
#include "acic/core/paramspace.hpp"
#include "acic/core/predictor.hpp"
#include "acic/core/training.hpp"
#include "acic/ml/cart.hpp"
#include "acic/ml/forest.hpp"

namespace acic::ml {
namespace {

Dataset random_data(std::size_t rows, std::size_t features,
                    std::uint64_t seed) {
  Rng rng(seed);
  Dataset d;
  std::vector<double> x(features);
  for (std::size_t i = 0; i < rows; ++i) {
    for (auto& v : x) v = rng.uniform();
    // A bumpy but learnable target so trees grow real depth.
    const double y = (x[0] < 0.4 ? 3.0 : -1.0) +
                     (features > 1 && x[1] < 0.7 ? 0.5 * x[1] : x[0]) +
                     0.1 * rng.normal();
    d.add(x, y);
  }
  return d;
}

std::vector<double> random_matrix(std::size_t rows, std::size_t features,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> m(rows * features);
  for (auto& v : m) v = rng.uniform(-0.2, 1.2);
  return m;
}

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(FlatTreeTest, BatchIsBitIdenticalToPointerTree) {
  // Property test across tree shapes: many seeds, off-grid query points
  // (including values outside the training range, landing exactly on
  // thresholds is covered by reusing training rows below).
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto data = random_data(160, 3, seed);
    const auto tree = CartTree::train(data);
    constexpr std::size_t kRows = 257;
    const auto X = random_matrix(kRows, 3, seed * 977);

    std::vector<double> batch(kRows);
    tree.predict_batch(X, kRows, batch);
    std::vector<double> reference(kRows);
    for (std::size_t i = 0; i < kRows; ++i) {
      reference[i] =
          tree.predict(std::span<const double>(X.data() + i * 3, 3));
    }
    EXPECT_TRUE(bitwise_equal(batch, reference)) << "seed " << seed;
  }
}

TEST(FlatTreeTest, BatchOnTrainingRowsMatchesPredict) {
  // Training rows land exactly on split thresholds — the sharp edge for
  // any `<` vs `<=` divergence between the two walks.
  const auto data = random_data(200, 2, 42);
  const auto tree = CartTree::train(data);
  std::vector<double> X;
  for (const auto& row : data.x) X.insert(X.end(), row.begin(), row.end());

  std::vector<double> batch(data.rows());
  tree.predict_batch(X, data.rows(), batch);
  for (std::size_t i = 0; i < data.rows(); ++i) {
    EXPECT_EQ(batch[i], tree.predict(data.x[i])) << "row " << i;
  }
}

TEST(FlatTreeTest, SingleLeafTreeBatch) {
  Dataset d;
  d.add({1.0}, 7.0);
  d.add({2.0}, 7.0);
  d.add({3.0}, 7.0);
  d.add({4.0}, 7.0);
  const auto tree = CartTree::train(d);  // constant target: one leaf
  EXPECT_EQ(tree.flat().node_count(), 1u);
  const std::vector<double> X = {0.0, 10.0, -5.0};
  std::vector<double> out(3);
  tree.predict_batch(X, 3, out);
  EXPECT_EQ(out, (std::vector<double>{7.0, 7.0, 7.0}));
}

TEST(FlatTreeTest, EmptyBatchIsANoop) {
  const auto data = random_data(50, 2, 3);
  const auto tree = CartTree::train(data);
  std::vector<double> out;
  tree.predict_batch({}, 0, out);  // must not touch anything
}

TEST(FlatTreeTest, RejectsRaggedAndNarrowMatrices) {
  const auto data = random_data(80, 3, 4);
  const auto tree = CartTree::train(data);
  std::vector<double> out(4);
  const std::vector<double> ragged(10, 0.5);  // 10 % 4 != 0
  EXPECT_THROW(tree.predict_batch(ragged, 4, out), Error);
  std::vector<double> small_out(1);
  const std::vector<double> fine(12, 0.5);
  EXPECT_THROW(tree.predict_batch(fine, 4, small_out), Error);
}

TEST(FlatTreeTest, ForestBatchIsBitIdenticalToPerRow) {
  const auto data = random_data(150, 3, 5);
  ForestParams p;
  p.trees = 9;
  ForestRegressor forest(p);
  forest.fit(data);
  constexpr std::size_t kRows = 101;
  const auto X = random_matrix(kRows, 3, 999);

  std::vector<double> batch(kRows);
  forest.predict_batch(X, kRows, batch);
  std::vector<double> reference(kRows);
  for (std::size_t i = 0; i < kRows; ++i) {
    reference[i] =
        forest.predict(std::span<const double>(X.data() + i * 3, 3));
  }
  EXPECT_TRUE(bitwise_equal(batch, reference));
}

/// A small but real training database over the actual exploration space,
/// so the predictor-layer wiring is exercised end to end.
core::TrainingDatabase tiny_database(std::uint64_t seed) {
  Rng rng(seed);
  core::TrainingDatabase db;
  const auto& dims = core::ParamSpace::dimensions();
  for (int n = 0; n < 160; ++n) {
    core::Point p = core::default_point();
    for (const auto& spec : dims) {
      p[spec.dim] = spec.values[rng.uniform_index(spec.values.size())];
    }
    p = core::ParamSpace::repaired(p);
    core::TrainingSample s;
    s.point = p;
    s.baseline_time = 50.0;
    s.baseline_cost = 5.0;
    const double improvement =
        1.0 + p[core::kFileSystem] + 0.2 * p[core::kIoServers] +
        0.1 * rng.uniform();
    s.time = s.baseline_time / improvement;
    s.cost = s.baseline_cost / improvement;
    db.insert(s);
  }
  return db;
}

TEST(FlatTreeTest, AcicRecommendUsesBatchPathBitIdentically) {
  // recommend()/predict_batch() at the predictor layer must score every
  // candidate exactly as per-pair predict() does.
  const auto db = tiny_database(11);
  const core::Acic model(db, core::Objective::kPerformance);
  io::Workload traits;
  traits.num_processes = 64;
  traits.num_io_processes = 64;
  traits.data_size = 4.0 * MiB;
  traits.request_size = 1.0 * MiB;
  traits.collective = true;
  traits.normalize();

  const auto candidates = cloud::IoConfig::enumerate_candidates();
  const auto scores = model.predict_batch(candidates, traits);
  ASSERT_EQ(scores.size(), candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(scores[i], model.predict(candidates[i], traits)) << "cand " << i;
  }

  const auto recs = model.recommend(traits, 3);
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_GE(recs[0].predicted_improvement, recs[1].predicted_improvement);
  EXPECT_EQ(recs[0].predicted_improvement,
            model.predict(recs[0].config, traits));

  // The full evaluation grid (every evaluation-suite workload x every
  // candidate, 9 x 56 rows), for the default CART and for the forest.
  const core::Acic forest(db, core::Objective::kPerformance, "forest");
  for (const core::Acic* acic : {&model, &forest}) {
    std::vector<double> batch;
    std::vector<double> per_pair;
    for (const auto& run : apps::evaluation_suite()) {
      const auto row = acic->predict_batch(candidates, run.workload);
      batch.insert(batch.end(), row.begin(), row.end());
      for (const auto& c : candidates) {
        per_pair.push_back(acic->predict(c, run.workload));
      }
    }
    EXPECT_EQ(per_pair.size(), 504u);
    EXPECT_TRUE(bitwise_equal(batch, per_pair)) << acic->model().name();
  }
}

TEST(FlatTreeConcurrency, SharedTreeConcurrentBatchPredict) {
  // A built FlatTree is immutable; concurrent predict_batch over one
  // shared instance must be race-free (this suite runs under TSan) and
  // agree across threads.
  const auto data = random_data(200, 3, 77);
  const auto tree = CartTree::train(data);
  constexpr std::size_t kRows = 300;
  const auto X = random_matrix(kRows, 3, 78);

  std::vector<double> expected(kRows);
  tree.predict_batch(X, kRows, expected);

  constexpr int kThreads = 4;
  std::vector<std::vector<double>> results(
      kThreads, std::vector<double>(kRows));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 50; ++rep) {
        tree.flat().predict_batch(X, kRows, results[static_cast<std::size_t>(t)]);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const auto& r : results) EXPECT_TRUE(bitwise_equal(r, expected));
}

}  // namespace
}  // namespace acic::ml
