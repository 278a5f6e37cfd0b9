#include "acic/ml/knn.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "acic/common/error.hpp"
#include "acic/plugin/substrates.hpp"

namespace acic::ml {

namespace {

/// Ridge damping on the normal equations' diagonal.
constexpr double kRidge = 1e-6;

void fit_normalizer(const Dataset& data, std::vector<double>& lo,
                    std::vector<double>& scale) {
  const std::size_t f = data.features();
  lo.assign(f, 0.0);
  scale.assign(f, 1.0);
  for (std::size_t j = 0; j < f; ++j) {
    double mn = data.x[0][j], mx = data.x[0][j];
    for (const auto& row : data.x) {
      mn = std::min(mn, row[j]);
      mx = std::max(mx, row[j]);
    }
    lo[j] = mn;
    scale[j] = (mx > mn) ? 1.0 / (mx - mn) : 0.0;
  }
}

}  // namespace

void KnnRegressor::fit(const Dataset& data) {
  ACIC_CHECK(data.rows() > 0);
  data_ = data;
  fit_normalizer(data_, lo_, scale_);
}

double KnnRegressor::predict(std::span<const double> features) const {
  ACIC_CHECK_MSG(data_.rows() > 0, "predict() on an unfitted kNN");
  ACIC_CHECK(features.size() == data_.features());
  std::vector<std::pair<double, double>> dist;  // (distance, y)
  dist.reserve(data_.rows());
  for (std::size_t i = 0; i < data_.rows(); ++i) {
    double d = 0.0;
    for (std::size_t j = 0; j < features.size(); ++j) {
      const double a = (features[j] - lo_[j]) * scale_[j];
      const double b = (data_.x[i][j] - lo_[j]) * scale_[j];
      d += (a - b) * (a - b);
    }
    dist.emplace_back(d, data_.y[i]);
  }
  const std::size_t k =
      std::min<std::size_t>(static_cast<std::size_t>(k_), dist.size());
  std::partial_sort(dist.begin(),
                    dist.begin() + static_cast<std::ptrdiff_t>(k),
                    dist.end());
  double sum = 0.0;
  for (std::size_t i = 0; i < k; ++i) sum += dist[i].second;
  return sum / static_cast<double>(k);
}

void LinearRegressor::fit(const Dataset& data) {
  ACIC_CHECK(data.rows() > 0);
  fit_normalizer(data, lo_, scale_);
  const std::size_t f = data.features();
  const std::size_t m = f + 1;  // intercept + features

  // Normal equations A beta = b with ridge damping on the diagonal.
  std::vector<double> a(m * m, 0.0), b(m, 0.0);
  std::vector<double> row(m);
  for (std::size_t i = 0; i < data.rows(); ++i) {
    row[0] = 1.0;
    for (std::size_t j = 0; j < f; ++j) {
      row[j + 1] = (data.x[i][j] - lo_[j]) * scale_[j];
    }
    for (std::size_t p = 0; p < m; ++p) {
      for (std::size_t q = 0; q < m; ++q) a[p * m + q] += row[p] * row[q];
      b[p] += row[p] * data.y[i];
    }
  }
  for (std::size_t p = 0; p < m; ++p) a[p * m + p] += kRidge;

  // Gaussian elimination with partial pivoting.
  for (std::size_t col = 0; col < m; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < m; ++r) {
      if (std::abs(a[r * m + col]) > std::abs(a[pivot * m + col])) pivot = r;
    }
    for (std::size_t q = 0; q < m; ++q) {
      std::swap(a[col * m + q], a[pivot * m + q]);
    }
    std::swap(b[col], b[pivot]);
    const double diag = a[col * m + col];
    ACIC_CHECK_MSG(std::abs(diag) > 1e-12, "singular normal equations");
    for (std::size_t r = 0; r < m; ++r) {
      if (r == col) continue;
      const double factor = a[r * m + col] / diag;
      for (std::size_t q = col; q < m; ++q) {
        a[r * m + q] -= factor * a[col * m + q];
      }
      b[r] -= factor * b[col];
    }
  }
  beta_.assign(m, 0.0);
  for (std::size_t p = 0; p < m; ++p) beta_[p] = b[p] / a[p * m + p];
}

double LinearRegressor::predict(std::span<const double> features) const {
  ACIC_CHECK_MSG(!beta_.empty(), "predict() on an unfitted model");
  ACIC_CHECK(features.size() + 1 == beta_.size());
  double y = beta_[0];
  for (std::size_t j = 0; j < features.size(); ++j) {
    y += beta_[j + 1] * (features[j] - lo_[j]) * scale_[j];
  }
  return y;
}

}  // namespace acic::ml

namespace acic::plugin {

LearnerPlugin knn_learner() {
  return {"knn", []() -> std::unique_ptr<ml::Learner> {
            return std::make_unique<ml::KnnRegressor>();
          }};
}

LearnerPlugin linear_learner() {
  return {"linear", []() -> std::unique_ptr<ml::Learner> {
            return std::make_unique<ml::LinearRegressor>();
          }};
}

}  // namespace acic::plugin
