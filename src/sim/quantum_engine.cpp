#include "sim/quantum_engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "sim/engine_core.hpp"
#include "sim/job_runtime.hpp"

namespace abg::sim {

namespace {

dag::Steps default_step_bound(const dag::Job& job,
                              const SingleJobConfig& config,
                              dag::Steps max_quantum) {
  // A job always making progress on >= 1 processor needs at most T1 steps;
  // add slack for quantum rounding and pathological feedback.
  const dag::Steps slack = std::max(config.quantum_length, max_quantum);
  const dag::Steps work_bound = 4 * job.total_work() + 8 * slack;
  return std::max<dag::Steps>(work_bound, 64 * slack);
}

}  // namespace

dag::Steps reallocation_penalty(int previous_allotment, int allotment,
                                dag::Steps cost_per_proc,
                                dag::Steps quantum_length) {
  if (cost_per_proc <= 0) {
    return 0;
  }
  const auto delta = static_cast<dag::Steps>(
      allotment > previous_allotment ? allotment - previous_allotment
                                     : previous_allotment - allotment);
  return std::min(quantum_length, cost_per_proc * delta);
}

dag::Steps region_reallocation_penalty(const ClusterMachine& machine,
                                       int previous_allotment, int allotment,
                                       dag::Steps cost_per_proc,
                                       dag::Steps quantum_length) {
  if (machine.regions.empty()) {
    return reallocation_penalty(previous_allotment, allotment, cost_per_proc,
                                quantum_length);
  }
  if (cost_per_proc <= 0 || previous_allotment == allotment) {
    return 0;
  }
  // Allotments fill the machine region by region in declaration order, so
  // an allotment change touches the processor indices between the old and
  // new boundary; each index pays its region's multiplier.
  const int lo = std::min(previous_allotment, allotment);
  const int hi = std::max(previous_allotment, allotment);
  double weighted = 0.0;
  int region_start = 0;
  for (const ClusterRegion& region : machine.regions) {
    const int region_end = region_start + region.processors;
    const int overlap =
        std::min(hi, region_end) - std::max(lo, region_start);
    if (overlap > 0) {
      weighted += static_cast<double>(overlap) * region.cost_multiplier;
    }
    region_start = region_end;
  }
  // Indices past the declared regions (over-subscribed allotments) pay the
  // flat rate.
  if (hi > region_start) {
    weighted += static_cast<double>(hi - std::max(lo, region_start));
  }
  const auto penalty = static_cast<dag::Steps>(
      std::llround(static_cast<double>(cost_per_proc) * weighted));
  return std::min(quantum_length, penalty);
}

JobTrace run_single_job(dag::Job& job, const sched::ExecutionPolicy& execution,
                        sched::RequestPolicy& request,
                        alloc::Allocator& allocator,
                        const SingleJobConfig& config) {
  sched::FixedQuantumLength fixed(
      config.quantum_length >= 1 ? config.quantum_length : 1);
  return run_single_job(job, execution, request, fixed, allocator, config);
}

JobTrace run_single_job(dag::Job& job, const sched::ExecutionPolicy& execution,
                        sched::RequestPolicy& request,
                        sched::QuantumLengthPolicy& quantum_length,
                        alloc::Allocator& allocator,
                        const SingleJobConfig& config) {
  check_machine(config.processors, config.quantum_length, "run_single_job");
  request.reset();
  quantum_length.reset();

  if (job.finished()) {  // zero-work job
    JobTrace trace;
    trace.work = job.total_work();
    trace.critical_path = job.critical_path();
    trace.completion_step = 0;
    return trace;
  }

  const dag::Steps initial_length = quantum_length.initial_length();
  if (initial_length < 1) {
    throw std::logic_error(
        "run_single_job: quantum-length policy returned length < 1");
  }
  dag::Steps max_steps = config.max_steps > 0
                             ? config.max_steps
                             : default_step_bound(job, config, initial_length);
  const bool faulty = config.faults != nullptr && !config.faults->empty();
  if (faulty && config.max_steps == 0) {
    max_steps += fault_bound_slack(
        *config.faults, job.total_work(),
        std::max(config.quantum_length, initial_length));
  }

  // A job set of one over the unified core: the caller's job and request
  // policy are borrowed (no owning pointers), the allocator is used as-is.
  JobBatch batch;
  {
    JobRuntime st;
    st.job = &job;
    st.request = &request;
    st.trace.work = job.total_work();
    st.trace.critical_path = job.critical_path();
    batch.append(std::move(st));
  }

  CoreConfig core;
  core.context = "run_single_job";
  core.processors = config.processors;
  core.quantum_length = initial_length;
  core.max_steps = max_steps;
  core.max_active = 1;
  core.reallocation_cost_per_proc = config.reallocation_cost_per_proc;
  core.faults = config.faults;
  core.quantum_length_policy = &quantum_length;
  core.stall_reason = "feedback loop is not making progress";
  core.bus = config.obs.event_bus;
  SimResult result =
      QuantumLoop(std::move(batch), 1, execution, allocator, core).run();
  if (config.fault_log_out != nullptr) {
    *config.fault_log_out = std::move(result.fault_log);
  }
  return std::move(result.jobs.front());
}

}  // namespace abg::sim
