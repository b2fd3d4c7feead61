#include "workload/profiles.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dag/builders.hpp"
#include "dag/dag_job.hpp"

namespace abg::workload {

namespace {

void check_width(dag::TaskCount width, const char* what) {
  if (width < 1) {
    throw std::invalid_argument(std::string("profiles: ") + what +
                                " must be >= 1");
  }
}

void check_levels(dag::Steps levels, const char* what) {
  if (levels < 0) {
    throw std::invalid_argument(std::string("profiles: ") + what +
                                " must be >= 0");
  }
}

}  // namespace

std::vector<dag::TaskCount> constant_profile(dag::TaskCount width,
                                             dag::Steps levels) {
  check_width(width, "width");
  check_levels(levels, "levels");
  return std::vector<dag::TaskCount>(static_cast<std::size_t>(levels), width);
}

std::unique_ptr<dag::Job> constant_parallelism_chains(dag::TaskCount width,
                                                      dag::Steps levels) {
  check_width(width, "width");
  if (levels < 1) {
    throw std::invalid_argument("profiles: chain levels must be >= 1");
  }
  return std::make_unique<dag::DagJob>(
      dag::builders::fork_join({{width, levels}}));
}

std::vector<dag::TaskCount> step_profile(dag::TaskCount low,
                                         dag::Steps low_levels,
                                         dag::TaskCount high,
                                         dag::Steps high_levels) {
  check_width(low, "low width");
  check_width(high, "high width");
  check_levels(low_levels, "low levels");
  check_levels(high_levels, "high levels");
  std::vector<dag::TaskCount> widths;
  widths.reserve(static_cast<std::size_t>(low_levels + high_levels));
  widths.insert(widths.end(), static_cast<std::size_t>(low_levels), low);
  widths.insert(widths.end(), static_cast<std::size_t>(high_levels), high);
  return widths;
}

std::vector<dag::TaskCount> square_wave_profile(dag::TaskCount low,
                                                dag::Steps low_levels,
                                                dag::TaskCount high,
                                                dag::Steps high_levels,
                                                int periods) {
  if (periods < 1) {
    throw std::invalid_argument("profiles: periods must be >= 1");
  }
  std::vector<dag::TaskCount> widths;
  const std::vector<dag::TaskCount> one =
      step_profile(low, low_levels, high, high_levels);
  widths.reserve(one.size() * static_cast<std::size_t>(periods));
  for (int p = 0; p < periods; ++p) {
    widths.insert(widths.end(), one.begin(), one.end());
  }
  return widths;
}

std::vector<dag::TaskCount> random_walk_profile(util::Rng& rng,
                                                dag::Steps levels,
                                                dag::TaskCount max_width,
                                                double max_step) {
  check_levels(levels, "levels");
  check_width(max_width, "max width");
  if (!(max_step >= 1.0)) {
    throw std::invalid_argument("profiles: max_step must be >= 1");
  }
  std::vector<dag::TaskCount> widths(static_cast<std::size_t>(levels));
  double current = 1.0;
  for (auto& w : widths) {
    const double factor = rng.log_uniform(1.0 / max_step, max_step);
    current = std::clamp(current * factor, 1.0,
                         static_cast<double>(max_width));
    w = std::max<dag::TaskCount>(
        1, static_cast<dag::TaskCount>(std::llround(current)));
  }
  return widths;
}

}  // namespace abg::workload
