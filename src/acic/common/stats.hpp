// Descriptive statistics used by the evaluation harnesses and the CART
// learner: one-pass (Welford) accumulation plus quantile summaries over
// stored samples.
#pragma once

#include <cstddef>
#include <vector>

namespace acic {

/// Streaming mean / variance accumulator (Welford's algorithm).
class OnlineStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Population variance; 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return mean_ * static_cast<double>(n_); }

  /// Merge another accumulator into this one (parallel reduction).
  void merge(const OnlineStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Five-number-style summary over a stored sample set.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
  double p25 = 0.0;
  double p75 = 0.0;
};

/// Build a Summary from samples (copied; the input is left untouched).
Summary summarize(const std::vector<double>& samples);

/// Linear-interpolated quantile (q in [0,1]) over samples.
double quantile(std::vector<double> samples, double q);

/// Arithmetic mean; 0 for an empty vector.
double mean_of(const std::vector<double>& samples);

/// Median; 0 for an empty vector.
double median_of(const std::vector<double>& samples);

/// Geometric mean; requires all samples > 0.
double geomean_of(const std::vector<double>& samples);

/// Median absolute deviation around the median; 0 for < 2 samples.
double mad_of(const std::vector<double>& samples);

/// Robust outlier rejection via the modified z-score
/// (0.6745 * |x - median| / MAD, Iglewicz–Hoaglin).  keep[i] is false
/// for samples whose score exceeds the customary 3.5 cut.  A zero MAD
/// (e.g. identical repeats) keeps everything.
struct OutlierFilter {
  std::vector<bool> keep;
  std::size_t rejected = 0;
};
OutlierFilter reject_outliers(const std::vector<double>& samples);

}  // namespace acic
