// Bagged regression forest: an ensemble of CART trees fitted on
// bootstrap resamples, predictions averaged.  Same bias family as the
// paper's CART but with far lower variance on the sparse training
// databases ACIC bootstraps from — one of the "different machine
// learning algorithms" the architecture lets users plug in (§2, §4.2).
#pragma once

#include <cstdint>
#include <vector>

#include "acic/ml/cart.hpp"

namespace acic::ml {

/// Each tree grows with the default CartParams minus the pruning
/// holdout on a bootstrap of as many rows as the data has.
struct ForestParams {
  int trees = 25;
  std::uint64_t seed = 1;
};

class ForestRegressor final : public Learner {
 public:
  explicit ForestRegressor(ForestParams params = {}) : params_(params) {}

  void fit(const Dataset& data) override;
  double predict(std::span<const double> features) const override;
  /// Sums each tree's flat-path batch contribution in tree order, then
  /// divides — the same addition order as per-row predict(), so the two
  /// are bit-identical.
  void predict_batch(std::span<const double> X, std::size_t n_rows,
                     std::span<double> out) const override;
  std::string name() const override { return "forest"; }

  std::size_t tree_count() const { return trees_.size(); }

  /// Ensemble spread at a query point (prediction std-dev across trees) —
  /// a cheap confidence signal for the recommendation UI.
  double prediction_stddev(std::span<const double> features) const;

 private:
  ForestParams params_;
  std::vector<CartTree> trees_;
};

}  // namespace acic::ml
