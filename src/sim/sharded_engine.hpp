// Sharded set engine: the hierarchical tree as a partitioned run.
//
// Jobs are dealt to allocation groups by submission index mod groups; each
// group is a QuantumLoop over its own group allocator.  Every
// `hier.rebalance_quanta` quanta the partitioned driver
// (sim/partitioned_driver.hpp) rolls the groups' desires up, splits the
// machine over them (DesireAggregator) and advances every live group to
// the epoch end at its budget on a thread pool.  Output is byte-identical
// at any `hier.threads`; with one group the budget is always the whole
// machine and the trace equals flat simulate_job_set's under the same
// allocator (the golden-fixture contract).
//
// Scope: what sim::check_composition allows (std::invalid_argument
// otherwise).  Events beyond the driver's run lifecycle and replayed
// quantum stream: one kHierRebalance per epoch and one kHierGroupSummary
// per group.
#pragma once

#include "sim/simulator.hpp"

namespace abg::sim {

/// Simulates the job set to completion on the hierarchical tree.  Requires
/// config.hier.groups >= 1.  `allocator` is reset and used as the
/// prototype for the root and every group when config.hier.allocator is
/// empty; otherwise that name ("deq" | "rr") is instantiated per level and
/// `allocator` is unused.
SimResult simulate_job_set_sharded(
    std::vector<JobSubmission> submissions,
    const sched::ExecutionPolicy& execution,
    const sched::RequestPolicy& request_prototype,
    alloc::Allocator& allocator, const SimConfig& config);

}  // namespace abg::sim
