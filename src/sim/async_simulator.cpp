#include "sim/async_simulator.hpp"

#include <utility>

#include "alloc/equipartition.hpp"
#include "sim/engine_core.hpp"

namespace abg::sim {

SimResult simulate_job_set_async(std::vector<JobSubmission> submissions,
                                 const sched::ExecutionPolicy& execution,
                                 const sched::RequestPolicy& request_prototype,
                                 const SimConfig& config) {
  alloc::EquiPartition deq;
  return simulate_job_set_async(std::move(submissions), execution,
                                request_prototype, deq, config);
}

SimResult simulate_job_set_async(std::vector<JobSubmission> submissions,
                                 const sched::ExecutionPolicy& execution,
                                 const sched::RequestPolicy& request_prototype,
                                 alloc::Allocator& allocator,
                                 const SimConfig& config) {
  SetRun set = prepare_set(std::move(submissions), request_prototype,
                           allocator, config, "simulate_job_set_async");
  // The per-job driver starts every job at the fixed length and asks the
  // job's own policy clone for its first length at admission.
  set.core.quantum_length = config.quantum_length;
  set.core.skip_ahead = config.skip_ahead;
  return run_per_job_quanta(set.batch, set.totals, execution, allocator,
                            set.core);
}

}  // namespace abg::sim
