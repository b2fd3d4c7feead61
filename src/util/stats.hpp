// Streaming summary statistics and small numeric helpers.
//
// Experiments aggregate thousands of per-job and per-quantum samples; the
// accumulators here compute mean / variance / extrema in one pass (Welford's
// algorithm) without storing samples, plus a quantile helper for the few
// places (trim analysis diagnostics) that need order statistics.
#pragma once

#include <cstddef>
#include <vector>

namespace abg::util {

/// One-pass accumulator for mean, variance, min and max.
class RunningStats {
 public:
  /// Adds one sample.
  void add(double x);

  /// Number of samples added.
  std::size_t count() const { return n_; }

  /// Sample mean; 0 when empty.
  double mean() const { return n_ > 0 ? mean_ : 0.0; }

  /// Unbiased sample variance; 0 when fewer than two samples.
  double variance() const;

  /// Smallest sample; +inf when empty.
  double min() const;

  /// Largest sample; -inf when empty.
  double max() const;

  /// Sum of all samples.
  double sum() const { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Contract for empty inputs: the vector helpers below return quiet NaN
// rather than throwing, so aggregation pipelines (sweep summaries, metric
// registries) can pass possibly-empty sample sets straight through —
// util::Json serializes NaN as null, which downstream tooling reads as "no
// data".  Test with std::isnan, not ==.

/// Returns the q-quantile (0 <= q <= 1) of `samples` using linear
/// interpolation between order statistics; quiet NaN on empty input.
double quantile(std::vector<double> samples, double q);

/// Arithmetic mean of a vector; quiet NaN on empty input.
double mean_of(const std::vector<double>& samples);

/// Integer ceiling division for non-negative operands.
constexpr long long ceil_div(long long num, long long den) {
  return (num + den - 1) / den;
}

}  // namespace abg::util
