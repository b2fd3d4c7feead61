#include "dag/characteristics.hpp"

#include <algorithm>

#include "dag/dag_job.hpp"
#include "dag/profile_job.hpp"

namespace abg::dag {

JobCharacteristics characteristics_of(const Job& job) {
  JobCharacteristics c;
  c.work = job.total_work();
  c.critical_path = job.critical_path();
  c.average_parallelism =
      c.critical_path > 0
          ? static_cast<double>(c.work) / static_cast<double>(c.critical_path)
          : 0.0;
  if (const auto* profile = dynamic_cast<const ProfileJob*>(&job)) {
    for (const LevelRun& run : profile->runs()) {
      c.max_level_width = std::max(c.max_level_width, run.width);
    }
  } else if (const auto* dagjob = dynamic_cast<const DagJob*>(&job)) {
    for (const TaskCount w : dagjob->level_sizes()) {
      c.max_level_width = std::max(c.max_level_width, w);
    }
  }
  return c;
}

}  // namespace abg::dag
