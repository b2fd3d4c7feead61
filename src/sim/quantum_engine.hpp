// Single-job quantum engine.
//
// Drives one malleable job through the two-level feedback loop against an
// allocator: request → allotment → execute quantum → measure → next
// request.  This is the machinery behind the paper's first simulation set
// (Figures 1, 4 and 5) and the trim-analysis experiments; the
// multiprogrammed simulator (sim/simulator.hpp) generalizes it to job sets.
#pragma once

#include "alloc/allocator.hpp"
#include "dag/job.hpp"
#include "fault/fault_log.hpp"
#include "fault/fault_plan.hpp"
#include "obs/obs_config.hpp"
#include "sched/execution_policy.hpp"
#include "sched/quantum_length.hpp"
#include "sched/request_policy.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace abg::sim {

/// Parameters of a single-job run.
struct SingleJobConfig {
  /// Machine size P.
  int processors = 128;
  /// Quantum length L in unit steps.
  dag::Steps quantum_length = 1000;
  /// Safety bound on total steps; the engine throws std::runtime_error if
  /// the job has not finished by then (0 = derive a generous bound from the
  /// job's work and critical path).
  dag::Steps max_steps = 0;
  /// Reallocation overhead: when the allotment changes between quanta the
  /// job loses `cost * |Δa|` steps (capped at the quantum) to processor
  /// migration before useful work resumes — the overhead the paper's
  /// simulations ignore but its introduction names as the cost of request
  /// instability.  The job's initial allocation is also charged (a job
  /// must be placed).  0 reproduces the paper's overhead-free setting.
  dag::Steps reallocation_cost_per_proc = 0;
  /// Optional fault plan (see fault/fault_plan.hpp); job index 0 is this
  /// job.  Null or empty is a strict no-op.  Under restart-from-scratch
  /// recovery the engine continues on an internal fresh clone and the
  /// caller's job object is left partially executed.  The plan must
  /// outlive the call.
  const fault::FaultPlan* faults = nullptr;
  /// When set, the run's fault log (crashes, lost work, capacity history)
  /// is copied here — the JobTrace return value has nowhere to carry it.
  fault::FaultLog* fault_log_out = nullptr;
  /// Observability hooks (see obs/obs_config.hpp); the default publishes
  /// nothing and takes the exact pre-observability code path.
  obs::ObsConfig obs = {};
};

/// Steps lost to processor migration when the allotment changes from
/// `previous_allotment` to `allotment` at cost `cost_per_proc` steps per
/// processor moved, capped at the quantum length.
dag::Steps reallocation_penalty(int previous_allotment, int allotment,
                                dag::Steps cost_per_proc,
                                dag::Steps quantum_length);

/// Region-weighted reallocation penalty: the steps a job loses at the
/// start of a quantum when its allotment on `machine` changed.  Processor
/// indices [min(prev, cur), max(prev, cur)) each cost
/// `cost_per_proc × multiplier(region covering the index)`; the rounded
/// sum is capped at the quantum length.  A machine with no regions (or
/// one region at multiplier 1.0) reproduces reallocation_penalty exactly.
dag::Steps region_reallocation_penalty(const ClusterMachine& machine,
                                       int previous_allotment, int allotment,
                                       dag::Steps cost_per_proc,
                                       dag::Steps quantum_length);

/// Runs `job` to completion under the given policies and allocator and
/// returns its trace.  The request policy is reset before the run; the
/// allocator is used as-is (reset it yourself to replay a profile).
JobTrace run_single_job(dag::Job& job, const sched::ExecutionPolicy& execution,
                        sched::RequestPolicy& request,
                        alloc::Allocator& allocator,
                        const SingleJobConfig& config);

/// As above, but with a quantum-length policy choosing each quantum's
/// length (Section 9's dynamic-quantum extension; the base overload is
/// equivalent to FixedQuantumLength(config.quantum_length)).  The
/// quantum-length policy is reset before the run; config.quantum_length is
/// ignored in favor of the policy.
JobTrace run_single_job(dag::Job& job, const sched::ExecutionPolicy& execution,
                        sched::RequestPolicy& request,
                        sched::QuantumLengthPolicy& quantum_length,
                        alloc::Allocator& allocator,
                        const SingleJobConfig& config);

}  // namespace abg::sim
