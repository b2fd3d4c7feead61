#include "sim/quantum_eval.hpp"

#include <stdexcept>

namespace abg::sim::quantum_eval {

dag::Steps steps_to_finish(const dag::PhaseView& view, int procs,
                           dag::Steps cap) {
  if (view.runs == nullptr) {
    throw std::invalid_argument("steps_to_finish: job has no phase view");
  }
  if (procs < 0 || cap < 0) {
    throw std::invalid_argument("steps_to_finish: negative procs or cap");
  }
  const std::vector<dag::LevelRun>& runs = *view.runs;
  if (view.run >= runs.size()) {
    return 0;
  }
  if (procs == 0) {
    return cap + 1;  // no progress is possible
  }
  // The current level, then the untouched rest of its run, then every
  // later run: `rest` full levels at `per` steps each.  `steps <= cap`
  // holds throughout, so `cap - steps` cannot overflow and the product
  // is only formed once it is known to fit.
  dag::Steps steps = dag::steps_to_drain(view.remaining_in_level, procs);
  if (steps > cap) {
    return cap + 1;
  }
  dag::Steps rest = view.levels_left - 1;
  for (std::size_t r = view.run; r < runs.size(); ++r) {
    const dag::Steps per = dag::steps_to_drain(runs[r].width, procs);
    if (rest > (cap - steps) / per) {
      return cap + 1;
    }
    steps += rest * per;
    if (r + 1 < runs.size()) {
      rest = runs[r + 1].levels;
    }
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
