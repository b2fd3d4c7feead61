#include "sim/quantum_eval.hpp"

#include <stdexcept>

namespace abg::sim::quantum_eval {

dag::Steps steps_to_finish(const dag::PhaseView& view, int procs,
                           dag::Steps cap) {
  if (view.widths == nullptr) {
    throw std::invalid_argument("steps_to_finish: job has no phase view");
  }
  if (procs < 0 || cap < 0) {
    throw std::invalid_argument("steps_to_finish: negative procs or cap");
  }
  const std::vector<dag::TaskCount>& widths = *view.widths;
  std::size_t level = view.level;
  if (level >= widths.size()) {
    return 0;
  }
  if (procs == 0) {
    return cap + 1;  // no progress is possible
  }
  dag::TaskCount remaining = view.remaining_in_level;
  dag::Steps steps = 0;
  while (level < widths.size()) {
    steps += static_cast<dag::Steps>((remaining + procs - 1) / procs);
    if (steps > cap) {
      return cap + 1;
    }
    ++level;
    remaining = level < widths.size() ? widths[level] : 0;
  }
  return steps;
}

sched::QuantumStats run_allotted_quantum(
    dag::Job& job, const sched::ExecutionPolicy& execution, std::int64_t index,
    int desire, int allotment, dag::Steps length, dag::Steps penalty,
    int leftover, dag::Steps start_step) {
  sched::QuantumStats stats;
  if (penalty < length) {
    stats = execution.run_quantum(job, index, desire, allotment,
                                  length - penalty);
  } else {
    stats.index = index;
    stats.request = desire;
    stats.allotment = allotment;
    stats.finished = job.finished();
  }
  stats.length = length;
  stats.steps_used += penalty;
  if (penalty > 0) {
    stats.full = false;  // the migration steps did no work
  }
  stats.available = allotment + leftover;
  stats.start_step = start_step;
  return stats;
}

}  // namespace abg::sim::quantum_eval
