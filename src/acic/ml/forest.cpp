#include "acic/ml/forest.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "acic/common/error.hpp"
#include "acic/common/rng.hpp"
#include "acic/common/stats.hpp"
#include "acic/plugin/substrates.hpp"

namespace acic::ml {

namespace {

/// Individual trees do not hold out a pruning set — bagging is the
/// variance control here.
constexpr CartParams kTreeParams{.prune_holdout = 0};

}  // namespace

void ForestRegressor::fit(const Dataset& data) {
  ACIC_CHECK(data.rows() > 0);
  ACIC_CHECK(params_.trees >= 1);
  trees_.clear();
  trees_.reserve(static_cast<std::size_t>(params_.trees));
  Rng rng(params_.seed);
  // Each bootstrap draws as many rows as the data has, with replacement.
  // Bootstraps are index views into `data` — drawing the same row ids in
  // the same rng order as a materialised resample, so seeded models are
  // unchanged, without the old O(trees x n x f) row copies.
  std::vector<std::size_t> boot(data.rows());
  for (int t = 0; t < params_.trees; ++t) {
    for (std::size_t& row : boot) {
      row = static_cast<std::size_t>(rng.uniform_index(data.rows()));
    }
    trees_.push_back(CartTree::train_on_rows(data, boot, kTreeParams));
  }
}

void ForestRegressor::predict_batch(std::span<const double> X,
                                    std::size_t n_rows,
                                    std::span<double> out) const {
  ACIC_CHECK_MSG(!trees_.empty(), "predict_batch() on an unfitted forest");
  if (n_rows == 0) return;
  ACIC_EXPECTS(out.size() >= n_rows,
               "output span holds " << out.size() << " slots for " << n_rows
                                    << " rows");
  std::fill(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(n_rows),
            0.0);
  for (const auto& tree : trees_) {
    tree.flat().predict_batch_add(X, n_rows, out);
  }
  // Divide (not multiply by the reciprocal): predict() divides, and the
  // two must stay bit-identical.
  const auto count = static_cast<double>(trees_.size());
  for (std::size_t i = 0; i < n_rows; ++i) out[i] /= count;
}

double ForestRegressor::predict(std::span<const double> features) const {
  ACIC_CHECK_MSG(!trees_.empty(), "predict() on an unfitted forest");
  double sum = 0.0;
  for (const auto& tree : trees_) sum += tree.predict(features);
  return sum / static_cast<double>(trees_.size());
}

double ForestRegressor::prediction_stddev(
    std::span<const double> features) const {
  ACIC_CHECK_MSG(!trees_.empty(), "prediction_stddev() on unfitted forest");
  OnlineStats stats;
  for (const auto& tree : trees_) stats.add(tree.predict(features));
  return stats.stddev();
}

}  // namespace acic::ml

namespace acic::plugin {

LearnerPlugin forest_learner() {
  return {"forest", []() -> std::unique_ptr<ml::Learner> {
            return std::make_unique<ml::ForestRegressor>();
          }};
}

}  // namespace acic::plugin
