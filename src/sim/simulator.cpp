#include "sim/simulator.hpp"

#include <utility>

#include "sim/engine_core.hpp"

namespace abg::sim {

SimResult simulate_job_set(std::vector<JobSubmission> submissions,
                           const sched::ExecutionPolicy& execution,
                           const sched::RequestPolicy& request_prototype,
                           alloc::Allocator& allocator,
                           const SimConfig& config) {
  SetRun set = prepare_set(std::move(submissions), request_prototype,
                           allocator, config, "simulate_job_set");
  return QuantumLoop(std::move(set.batch), set.totals.remaining, execution,
                     allocator, set.core)
      .run();
}

}  // namespace abg::sim
