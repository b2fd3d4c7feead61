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

std::vector<dag::LevelRun> constant_profile(dag::TaskCount width,
                                           dag::Steps levels) {
  check_width(width, "width");
  check_levels(levels, "levels");
  if (levels == 0) {
    return {};
  }
  return {dag::LevelRun{width, levels}};
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

std::vector<dag::LevelRun> step_profile(dag::TaskCount low,
                                       dag::Steps low_levels,
                                       dag::TaskCount high,
                                       dag::Steps high_levels) {
  check_width(low, "low width");
  check_width(high, "high width");
  check_levels(low_levels, "low levels");
  check_levels(high_levels, "high levels");
  std::vector<dag::LevelRun> runs;
  for (const dag::LevelRun run : {dag::LevelRun{low, low_levels},
                                  dag::LevelRun{high, high_levels}}) {
    if (run.levels > 0) {
      runs.push_back(run);
    }
  }
  return runs;
}

std::vector<dag::LevelRun> square_wave_profile(dag::TaskCount low,
                                              dag::Steps low_levels,
                                              dag::TaskCount high,
                                              dag::Steps high_levels,
                                              int periods) {
  if (periods < 1) {
    throw std::invalid_argument("profiles: periods must be >= 1");
  }
  const std::vector<dag::LevelRun> one =
      step_profile(low, low_levels, high, high_levels);
  std::vector<dag::LevelRun> runs;
  runs.reserve(one.size() * static_cast<std::size_t>(periods));
  for (int p = 0; p < periods; ++p) {
    runs.insert(runs.end(), one.begin(), one.end());
  }
  return runs;
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
