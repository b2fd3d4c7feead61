#include "workload/arrivals.hpp"

#include <limits>
#include <stdexcept>

namespace abg::workload {

std::vector<dag::Steps> staggered_releases(std::size_t jobs,
                                           dag::Steps gap) {
  if (gap < 0) {
    throw std::invalid_argument("staggered_releases: gap must be >= 0");
  }
  // The last release is (jobs - 1) * gap; reject schedules whose product
  // would wrap dag::Steps into a negative step instead of producing one.
  if (jobs > 1 && gap > 0 &&
      gap > std::numeric_limits<dag::Steps>::max() /
                static_cast<dag::Steps>(jobs - 1)) {
    throw std::invalid_argument(
        "staggered_releases: jobs * gap overflows the step counter");
  }
  std::vector<dag::Steps> releases(jobs);
  for (std::size_t i = 0; i < jobs; ++i) {
    releases[i] = static_cast<dag::Steps>(i) * gap;
  }
  return releases;
}

std::vector<dag::Steps> poisson_releases(util::Rng& rng, std::size_t jobs,
                                         double mean_gap) {
  // Gaps are whole steps: a mean below one step degenerates to a batched
  // release (every draw truncates to 0) and silently misrepresents the
  // requested arrival rate; means beyond 1e12 overflow the truncation
  // bound below.  Reject both instead of accepting them quietly.
  if (!(mean_gap >= 1.0) || mean_gap > 1e12) {
    throw std::invalid_argument(
        "poisson_releases: mean gap must be in [1, 1e12]");
  }
  std::vector<dag::Steps> releases(jobs);
  dag::Steps now = 0;
  const double p = 1.0 / (1.0 + mean_gap);
  for (std::size_t i = 0; i < jobs; ++i) {
    releases[i] = now;
    // Geometric inter-arrival with mean (1 - p)/p = mean_gap, truncated
    // far into the tail so a single draw cannot stall the simulation.
    now += rng.geometric(
        p, static_cast<dag::Steps>(mean_gap * 64.0) + 64);
  }
  return releases;
}

}  // namespace abg::workload
