#include "metrics/parallelism_stats.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/stats.hpp"

namespace abg::metrics {

namespace {

/// Parallelism values of the trace's full quanta, in order.
std::vector<double> full_quantum_parallelism(const sim::JobTrace& trace) {
  std::vector<double> out;
  out.reserve(trace.quanta.size());
  for (const auto& q : trace.quanta) {
    if (q.full && q.cpl > 0.0) {
      out.push_back(q.average_parallelism());
    }
  }
  return out;
}

}  // namespace

double transition_factor_of_series(const std::vector<double>& parallelism,
                                   bool seed_initial) {
  double factor = 1.0;
  double prev = seed_initial ? 1.0 : 0.0;
  bool have_prev = seed_initial;
  for (const double a : parallelism) {
    if (!(a > 0.0)) {
      throw std::invalid_argument(
          "transition_factor_of_series: non-positive parallelism");
    }
    if (have_prev) {
      factor = std::max({factor, a / prev, prev / a});
    }
    prev = a;
    have_prev = true;
  }
  return factor;
}

double empirical_transition_factor(const sim::JobTrace& trace) {
  return transition_factor_of_series(full_quantum_parallelism(trace),
                                     /*seed_initial=*/true);
}

double parallelism_variance(const sim::JobTrace& trace) {
  util::RunningStats stats;
  for (const double a : full_quantum_parallelism(trace)) {
    stats.add(a);
  }
  return stats.variance();
}

}  // namespace abg::metrics
