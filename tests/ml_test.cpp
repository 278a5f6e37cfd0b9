// Tests for the ML module: dataset plumbing, CART regression trees
// (splitting, pruning, introspection), kNN and linear learners.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "acic/common/error.hpp"
#include "acic/common/rng.hpp"
#include "acic/ml/cart.hpp"
#include "acic/ml/forest.hpp"
#include "acic/ml/knn.hpp"

namespace acic::ml {
namespace {

Dataset step_function_data(int n, std::uint64_t seed, double noise = 0.0) {
  // y = 10 for x0 < 0.5, else 2; second feature is irrelevant.
  Rng rng(seed);
  Dataset d;
  for (int i = 0; i < n; ++i) {
    const double x0 = rng.uniform();
    const double x1 = rng.uniform();
    const double y =
        (x0 < 0.5 ? 10.0 : 2.0) + noise * rng.normal();
    d.add({x0, x1}, y);
  }
  return d;
}

TEST(DatasetTest, AddAndSplit) {
  Dataset d;
  for (int i = 0; i < 10; ++i) d.add({double(i)}, double(i));
  EXPECT_EQ(d.rows(), 10u);
  EXPECT_EQ(d.features(), 1u);
  const auto [train, val] = d.split_validation(5);
  EXPECT_EQ(train.rows(), 8u);
  EXPECT_EQ(val.rows(), 2u);
  EXPECT_DOUBLE_EQ(val.y[0], 4.0);
  EXPECT_DOUBLE_EQ(val.y[1], 9.0);
}

TEST(DatasetTest, RejectsRaggedRows) {
  Dataset d;
  d.add({1.0, 2.0}, 0.0);
  EXPECT_THROW(d.add({1.0}, 0.0), Error);
}

TEST(CartTest, LearnsStepFunctionExactly) {
  const auto data = step_function_data(200, 1);
  const auto tree = CartTree::train(data);
  EXPECT_NEAR(tree.predict(std::vector<double>{0.1, 0.9}), 10.0, 1e-9);
  EXPECT_NEAR(tree.predict(std::vector<double>{0.9, 0.1}), 2.0, 1e-9);
}

TEST(CartTest, SplitsOnTheInformativeFeature) {
  const auto data = step_function_data(300, 2);
  const auto tree = CartTree::train(data);
  const auto counts = tree.split_counts(2);
  EXPECT_GE(counts[0], 1);
  // The irrelevant feature should essentially never be used.
  EXPECT_LE(counts[1], counts[0]);
}

TEST(CartTest, PruningShrinksNoisyTree) {
  const auto data = step_function_data(400, 3, /*noise=*/1.0);
  CartParams no_prune;
  no_prune.prune_holdout = 0;
  CartParams prune;
  prune.prune_holdout = 4;
  const auto big = CartTree::train(data, no_prune);
  const auto small = CartTree::train(data, prune);
  EXPECT_LT(small.node_count(), big.node_count());
  // Pruned tree still gets the structure right.
  EXPECT_NEAR(small.predict(std::vector<double>{0.1, 0.5}), 10.0, 1.0);
  EXPECT_NEAR(small.predict(std::vector<double>{0.9, 0.5}), 2.0, 1.0);
}

TEST(CartTest, RespectsMaxDepth) {
  Rng rng(4);
  Dataset d;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform();
    d.add({x}, std::sin(8.0 * x));
  }
  CartParams p;
  p.max_depth = 3;
  p.prune_holdout = 0;
  const auto tree = CartTree::train(d, p);
  EXPECT_LE(tree.depth(), 4);  // root at depth 1
}

TEST(CartTest, ConstantTargetYieldsSingleLeaf) {
  Dataset d;
  for (int i = 0; i < 50; ++i) d.add({double(i % 7)}, 3.5);
  const auto tree = CartTree::train(d);
  EXPECT_EQ(tree.node_count(), 1);
  EXPECT_EQ(tree.leaf_count(), 1);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{123.0}), 3.5);
}

TEST(CartTest, DumpShowsPredictorAndLeafStats) {
  const auto data = step_function_data(100, 5);
  const auto tree = CartTree::train(data);
  const auto text = tree.dump({"size", "other"});
  EXPECT_NE(text.find("size <"), std::string::npos);
  EXPECT_NE(text.find("avg="), std::string::npos);
  EXPECT_NE(text.find("std="), std::string::npos);
}

TEST(CartTest, ThrowsOnEmptyAndUnfitted) {
  EXPECT_THROW(CartTree::train(Dataset{}), Error);
  CartTree tree;
  EXPECT_THROW(tree.predict(std::vector<double>{1.0}), Error);
}

TEST(CartTest, MseImprovesOverMeanPredictor) {
  const auto data = step_function_data(300, 6, /*noise=*/0.3);
  const auto tree = CartTree::train(data);
  double mean = 0.0;
  for (double y : data.y) mean += y;
  mean /= static_cast<double>(data.rows());
  double mean_mse = 0.0;
  for (double y : data.y) mean_mse += (y - mean) * (y - mean);
  mean_mse /= static_cast<double>(data.rows());
  EXPECT_LT(mse(tree, data), 0.3 * mean_mse);
}

TEST(KnnTest, InterpolatesLocally) {
  KnnRegressor knn(3);
  Dataset d;
  for (int i = 0; i <= 10; ++i) d.add({double(i)}, 2.0 * i);
  knn.fit(d);
  EXPECT_NEAR(knn.predict(std::vector<double>{5.0}), 10.0, 2.1);
  EXPECT_GT(knn.predict(std::vector<double>{9.0}),
            knn.predict(std::vector<double>{1.0}));
}

TEST(KnnTest, NormalizesFeatureScales) {
  // Feature 1 has a huge numeric range but is irrelevant; feature 0
  // decides the target.  Without normalisation kNN would key on f1.
  Rng rng(7);
  Dataset d;
  for (int i = 0; i < 200; ++i) {
    const double x0 = rng.uniform();
    const double x1 = rng.uniform(0.0, 1e9);
    d.add({x0, x1}, x0 < 0.5 ? 1.0 : 5.0);
  }
  KnnRegressor knn(5);
  knn.fit(d);
  EXPECT_NEAR(knn.predict(std::vector<double>{0.1, 5e8}), 1.0, 0.5);
  EXPECT_NEAR(knn.predict(std::vector<double>{0.9, 5e8}), 5.0, 0.5);
}

TEST(LinearTest, RecoversLinearFunction) {
  Rng rng(8);
  Dataset d;
  for (int i = 0; i < 200; ++i) {
    const double a = rng.uniform(), b = rng.uniform();
    d.add({a, b}, 3.0 + 2.0 * a - 4.0 * b);
  }
  LinearRegressor lin;
  lin.fit(d);
  EXPECT_NEAR(lin.predict(std::vector<double>{0.5, 0.5}), 2.0, 1e-6);
  EXPECT_NEAR(lin.predict(std::vector<double>{1.0, 0.0}), 5.0, 1e-6);
}

TEST(LearnerInterface, NamesAreStable) {
  EXPECT_EQ(CartTree().name(), "CART");
  EXPECT_EQ(KnnRegressor().name(), "kNN");
  EXPECT_EQ(LinearRegressor().name(), "linear");
}


TEST(ForestTest, LearnsStepFunction) {
  const auto data = step_function_data(300, 9, /*noise=*/0.5);
  ForestRegressor forest;
  forest.fit(data);
  EXPECT_NEAR(forest.predict(std::vector<double>{0.1, 0.5}), 10.0, 1.0);
  EXPECT_NEAR(forest.predict(std::vector<double>{0.9, 0.5}), 2.0, 1.0);
  EXPECT_EQ(forest.tree_count(), 25u);
}

TEST(ForestTest, LowerVarianceThanSingleTreeAcrossResamples) {
  // Fit on two disjoint noisy samples; the forest's predictions at a
  // fixed query should differ less between fits than a single unpruned
  // tree's.
  const auto a = step_function_data(150, 10, 1.5);
  const auto b = step_function_data(150, 11, 1.5);
  CartParams loose;
  loose.prune_holdout = 0;
  const auto t1 = CartTree::train(a, loose);
  const auto t2 = CartTree::train(b, loose);
  ForestRegressor f1, f2;
  f1.fit(a);
  f2.fit(b);
  double tree_gap = 0.0, forest_gap = 0.0;
  Rng rng(12);
  for (int i = 0; i < 200; ++i) {
    const std::vector<double> q = {rng.uniform(), rng.uniform()};
    tree_gap += std::abs(t1.predict(q) - t2.predict(q));
    forest_gap += std::abs(f1.predict(q) - f2.predict(q));
  }
  EXPECT_LT(forest_gap, tree_gap);
}

TEST(ForestTest, PredictionStddevReflectsAmbiguity) {
  const auto data = step_function_data(400, 13, /*noise=*/0.2);
  ForestRegressor forest;
  forest.fit(data);
  // Deep inside a region: trees agree; at the decision boundary they
  // disagree more.
  const double inside = forest.prediction_stddev(std::vector<double>{0.1, 0.5});
  const double boundary =
      forest.prediction_stddev(std::vector<double>{0.5, 0.5});
  EXPECT_GE(boundary, inside);
}

TEST(ForestTest, DeterministicPerSeed) {
  const auto data = step_function_data(200, 14, 0.5);
  ForestParams p;
  p.seed = 7;
  ForestRegressor a(p), b(p);
  a.fit(data);
  b.fit(data);
  const std::vector<double> q = {0.3, 0.7};
  EXPECT_DOUBLE_EQ(a.predict(q), b.predict(q));
}

TEST(ForestTest, ThrowsUnfitted) {
  ForestRegressor f;
  EXPECT_THROW(f.predict(std::vector<double>{1.0, 2.0}), Error);
}

TEST(CartTest, AdjacentDoubleThresholdDoesNotCrash) {
  // Regression: with x values that are adjacent doubles, the midpoint
  // 0.5*(a+b) rounds back onto a, so the `x < thr` partition put zero
  // rows on the left and training aborted on the empty-side contract.
  // The threshold now falls back to b (any a < thr <= b is the same
  // split), so training succeeds and classifies both clusters.
  const double lo = 1.0;
  const double hi = std::nextafter(1.0, 2.0);
  Dataset d;
  d.add({lo}, 0.0);
  d.add({lo}, 0.0);
  d.add({hi}, 1.0);
  d.add({hi}, 1.0);
  const auto tree = CartTree::train(d);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{lo}), 0.0);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{hi}), 1.0);
}

// Two features that induce the same partition from opposite sides (x1 =
// 1 - x0) have the same true SSE, but the prefix scan accumulates the
// left side of each, so the two computed SSEs differ in their last bits
// and, without a tie rule, the rounding picks the split.  Such a tie
// must go to the earlier candidate, the lower feature index, on every
// label draw.
TEST(CartTest, AliasedFeaturesTieToTheLowerIndex) {
  CartParams params;
  params.max_depth = 1;
  params.min_samples_leaf = 1;
  params.prune_holdout = 0;
  Rng rng(41);
  for (int draw = 0; draw < 200; ++draw) {
    Dataset d;
    const std::size_t n = 4 + rng.uniform_index(12);
    for (std::size_t i = 0; i < n; ++i) {
      const double x = static_cast<double>(i % 2);
      d.add({x, 1.0 - x}, 4.0 * x + rng.uniform(1.0, 3.0));
    }
    const auto counts = CartTree::train(d, params).split_counts(2);
    EXPECT_EQ(counts, (std::vector<int>{1, 0})) << "label draw " << draw;
  }
}

TEST(CartTest, TrainOnRowsFullViewMatchesTrain) {
  const auto data = step_function_data(200, 21, /*noise=*/0.5);
  std::vector<std::size_t> all(data.rows());
  std::iota(all.begin(), all.end(), 0);
  const auto direct = CartTree::train(data);
  const auto viewed = CartTree::train_on_rows(data, all);
  Rng rng(22);
  for (int i = 0; i < 100; ++i) {
    const std::vector<double> q = {rng.uniform(), rng.uniform()};
    EXPECT_EQ(direct.predict(q), viewed.predict(q));
  }
}

TEST(ForestTest, IndexViewBootstrapMatchesMaterializedResample) {
  // fit() now trains each tree on an index view of the bootstrap draw.
  // Replaying the same rng sequence into materialised row-copy datasets
  // (the old implementation) must give bit-identical predictions.
  const auto data = step_function_data(120, 23, /*noise=*/0.8);
  ForestParams p;
  p.trees = 5;
  p.seed = 31;
  ForestRegressor forest(p);
  forest.fit(data);

  CartParams tree_params;
  tree_params.prune_holdout = 0;  // as ForestRegressor's trees grow
  Rng rng(p.seed);
  std::vector<CartTree> copied;
  for (int t = 0; t < p.trees; ++t) {
    Dataset boot;
    for (std::size_t i = 0; i < data.rows(); ++i) {
      const auto row = rng.uniform_index(data.rows());
      boot.add(data.x[row], data.y[row]);
    }
    copied.push_back(CartTree::train(boot, tree_params));
  }

  Rng probe(32);
  for (int i = 0; i < 100; ++i) {
    const std::vector<double> q = {probe.uniform(), probe.uniform()};
    double sum = 0.0;
    for (const auto& tree : copied) sum += tree.predict(q);
    EXPECT_EQ(forest.predict(q), sum / static_cast<double>(copied.size()));
  }
}

}  // namespace
}  // namespace acic::ml
