// Multi-machine cluster driver: N machines as a partitioned run.
//
// A Router (cluster/router.hpp) places every submission once, in
// submission order; each machine is then a QuantumLoop over its own clone
// of the run's allocator, budgeted at its own processor count, whose
// regions weigh the reallocation penalty.  The partitioned driver
// (sim/partitioned_driver.hpp) advances the machines in lockstep epochs on
// a thread pool.  With a migration period, each epoch ends with an
// imbalance pass that moves queued jobs from over-quota machines to
// machines with slack, charging one quantum of transfer debt (the job's
// eligibility moves a quantum past the epoch, and its previous allotment
// resets to zero so its next placement pays the full reallocation
// penalty).
//
// Determinism contract (pinned by golden fixtures + ctest): results are
// byte-identical at any ClusterConfig::threads, and a 1-machine cluster
// without explicit shapes is byte-identical to the flat engine under the
// same allocator.
#pragma once

#include <vector>

#include "alloc/allocator.hpp"
#include "sched/execution_policy.hpp"
#include "sched/request_policy.hpp"
#include "sim/simulator.hpp"

namespace abg::cluster {

/// Simulates the job set on the cluster `config.cluster` describes.
/// Throws std::invalid_argument when SimConfig::validate rejects the
/// config (sim::check_composition lists the excluded axes).  The
/// allocator is reset and cloned per machine.
sim::SimResult simulate_job_set_cluster(
    std::vector<sim::JobSubmission> submissions,
    const sched::ExecutionPolicy& execution,
    const sched::RequestPolicy& request_prototype,
    alloc::Allocator& allocator, const sim::SimConfig& config);

}  // namespace abg::cluster
