// k-nearest-neighbour regression: the simplest drop-in alternative
// learner, demonstrating the paper's pluggable-model claim.  Features are
// normalised to [0,1] per dimension so byte-valued and boolean dimensions
// weigh equally.
#pragma once

#include "acic/ml/dataset.hpp"

namespace acic::ml {

class KnnRegressor final : public Learner {
 public:
  explicit KnnRegressor(int k = 5) : k_(k) {}

  void fit(const Dataset& data) override;
  double predict(std::span<const double> features) const override;
  std::string name() const override { return "kNN"; }

 private:
  int k_;
  Dataset data_;
  std::vector<double> lo_, scale_;
};

/// Ordinary least squares on (1, x) via normal equations with ridge
/// damping; the "linear baseline" learner.
class LinearRegressor final : public Learner {
 public:
  void fit(const Dataset& data) override;
  double predict(std::span<const double> features) const override;
  std::string name() const override { return "linear"; }

 private:
  std::vector<double> beta_;  // intercept first
  std::vector<double> lo_, scale_;
};

}  // namespace acic::ml
