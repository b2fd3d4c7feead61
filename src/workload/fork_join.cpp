#include "workload/fork_join.hpp"

#include <cmath>
#include <stdexcept>

namespace abg::workload {

std::vector<dag::builders::PhaseSpec> fork_join_phases(
    util::Rng& rng, const ForkJoinSpec& spec) {
  if (!(spec.transition_factor >= 1.0)) {
    throw std::invalid_argument(
        "fork_join_phases: transition factor must be >= 1");
  }
  if (spec.phase_pairs < 1) {
    throw std::invalid_argument("fork_join_phases: phase_pairs must be >= 1");
  }
  if (spec.min_phase_levels < 1 ||
      spec.max_phase_levels < spec.min_phase_levels) {
    throw std::invalid_argument("fork_join_phases: bad phase length range");
  }
  const auto parallel_width = std::max<dag::TaskCount>(
      1, static_cast<dag::TaskCount>(std::llround(spec.transition_factor)));

  auto draw_length = [&]() {
    return static_cast<dag::Steps>(std::llround(
        rng.log_uniform(static_cast<double>(spec.min_phase_levels),
                        static_cast<double>(spec.max_phase_levels))));
  };

  std::vector<dag::builders::PhaseSpec> phases;
  phases.reserve(static_cast<std::size_t>(2 * spec.phase_pairs));
  for (int pair = 0; pair < spec.phase_pairs; ++pair) {
    phases.push_back({1, draw_length()});
    phases.push_back({parallel_width, draw_length()});
  }
  return phases;
}

std::unique_ptr<dag::ProfileJob> make_fork_join_job(util::Rng& rng,
                                                    const ForkJoinSpec& spec) {
  return std::make_unique<dag::ProfileJob>(
      dag::ProfileJob::from_runs(fork_join_phases(rng, spec)));
}

ForkJoinSpec figure5_spec(double transition_factor,
                          dag::Steps quantum_length) {
  if (quantum_length < 2) {
    throw std::invalid_argument("figure5_spec: quantum length must be >= 2");
  }
  ForkJoinSpec spec;
  spec.transition_factor = transition_factor;
  spec.phase_pairs = 6;
  // Phases span several quanta at full allotment so the realized
  // per-quantum parallelism actually dwells at each level — this is what
  // separates the schedulers' steady-state behaviour (ABG settles,
  // A-Greedy keeps oscillating) from the unavoidable transition cost.
  spec.min_phase_levels = 2 * quantum_length;
  spec.max_phase_levels = 16 * quantum_length;
  return spec;
}

}  // namespace abg::workload
