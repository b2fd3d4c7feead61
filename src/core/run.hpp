// High-level run drivers: one call from "a job and a scheduler" to a trace
// or job-set result.
//
// A SchedulerSpec names an (execution policy, request policy) pair so
// experiment harnesses can sweep over schedulers uniformly; abg_spec() and
// a_greedy_spec() build the two the paper compares, and static_spec() adds
// a non-adaptive bracket.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "alloc/allocator.hpp"
#include "open/streaming_engine.hpp"
#include "sched/a_control.hpp"
#include "sched/a_greedy_request.hpp"
#include "sched/execution_policy.hpp"
#include "sched/request_policy.hpp"
#include "sim/quantum_engine.hpp"
#include "sim/simulator.hpp"

namespace abg::core {

/// Configuration for an ABG scheduler.
struct AbgConfig {
  /// A-Control convergence rate r ∈ [0, 1); the paper's simulations use
  /// 0.2, and r = 0 gives one-step convergence d(q+1) = A(q).
  double convergence_rate = 0.2;
};

/// A named task-scheduler configuration.
struct SchedulerSpec {
  std::string name;
  std::unique_ptr<sched::ExecutionPolicy> execution;
  std::unique_ptr<sched::RequestPolicy> request;

  SchedulerSpec copy() const;
};

/// ABG (the paper's contribution): B-Greedy execution plus A-Control
/// requests with the given convergence rate.
SchedulerSpec abg_spec(AbgConfig config = {});

/// A-Greedy (Agrawal, He, Hsu, Leiserson, PPoPP'06), the baseline: greedy
/// execution plus MIMD requests with the given utilization/responsiveness
/// (paper defaults δ = 0.8, ρ = 2).
SchedulerSpec a_greedy_spec(sched::AGreedyConfig config = {});

/// ABG with online convergence-rate selection (tracks the empirical
/// transition factor and keeps r < safety / C_est).
SchedulerSpec abg_auto_spec(sched::AutoRateConfig config = {});

/// Fixed request of `processors` with B-Greedy execution (non-adaptive
/// bracket for ablations).
SchedulerSpec static_spec(int processors);

/// Runs one job to completion under the spec.  When `allocator` is null an
/// Unconstrained allocator is used (the paper's single-job setup: all
/// requests granted up to P).
sim::JobTrace run_single(const SchedulerSpec& spec, dag::Job& job,
                         const sim::SingleJobConfig& config,
                         alloc::Allocator* allocator = nullptr);

/// Runs a job set to completion under the spec.  When `allocator` is null
/// dynamic equi-partitioning is used (the paper's multiprogrammed setup).
/// `config.engine` selects the boundary model: synchronous global quanta
/// (default) or per-job asynchronous quanta.
sim::SimResult run_set(const SchedulerSpec& spec,
                       std::vector<sim::JobSubmission> submissions,
                       const sim::SimConfig& config,
                       alloc::Allocator* allocator = nullptr);

/// Runs an open-system stream to completion under the spec.  When
/// `allocator` is null dynamic equi-partitioning is used; when `factory`
/// is null the default open workload
/// (open::default_open_job_factory(config.quantum_length)) is used.
/// `seed` is the run seed all arrival/job/statistics streams derive from.
open::OpenResult run_open(const SchedulerSpec& spec,
                          const open::OpenConfig& config, std::uint64_t seed,
                          const open::JobFactory& factory = nullptr,
                          alloc::Allocator* allocator = nullptr);

}  // namespace abg::core
