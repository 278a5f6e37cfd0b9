#include "acic/common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "acic/common/error.hpp"

namespace acic {

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

void OnlineStats::merge(const OnlineStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  ACIC_CHECK(q >= 0.0 && q <= 1.0);
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

Summary summarize(const std::vector<double>& samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  OnlineStats acc;
  for (double x : samples) acc.add(x);
  s.mean = acc.mean();
  s.stddev = acc.stddev();
  s.min = acc.min();
  s.max = acc.max();
  s.median = quantile(samples, 0.5);
  s.p25 = quantile(samples, 0.25);
  s.p75 = quantile(samples, 0.75);
  return s;
}

double mean_of(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double x : samples) sum += x;
  return sum / static_cast<double>(samples.size());
}

double median_of(const std::vector<double>& samples) {
  return quantile(samples, 0.5);
}

double geomean_of(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : samples) {
    ACIC_CHECK_MSG(x > 0.0, "geomean requires positive samples");
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(samples.size()));
}

double mad_of(const std::vector<double>& samples) {
  if (samples.size() < 2) return 0.0;
  const double med = median_of(samples);
  std::vector<double> deviations;
  deviations.reserve(samples.size());
  for (double x : samples) deviations.push_back(std::abs(x - med));
  return median_of(deviations);
}

OutlierFilter reject_outliers(const std::vector<double>& samples) {
  constexpr double kThreshold = 3.5;  // the customary modified-z cut
  OutlierFilter filter;
  filter.keep.assign(samples.size(), true);
  const double mad = mad_of(samples);
  if (mad <= 0.0) return filter;  // identical (or too few) repeats
  const double med = median_of(samples);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const double score = 0.6745 * std::abs(samples[i] - med) / mad;
    if (score > kThreshold) {
      filter.keep[i] = false;
      ++filter.rejected;
    }
  }
  return filter;
}

}  // namespace acic
