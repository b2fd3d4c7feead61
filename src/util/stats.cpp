#include "util/stats.hpp"

#include <algorithm>
#include <limits>

namespace abg::util {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::min() const {
  return n_ > 0 ? min_ : std::numeric_limits<double>::infinity();
}

double RunningStats::max() const {
  return n_ > 0 ? max_ : -std::numeric_limits<double>::infinity();
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  q = std::clamp(q, 0.0, 1.0);
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

double mean_of(const std::vector<double>& samples) {
  if (samples.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  RunningStats acc;
  for (double s : samples) {
    acc.add(s);
  }
  return acc.mean();
}

}  // namespace abg::util
