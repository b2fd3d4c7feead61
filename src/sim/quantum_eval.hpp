// Skip-ahead quantum evaluation.
//
// For phase-structured jobs (dag::PhaseView: runs of equal-width levels +
// position) the outcome of running at a fixed allotment is closed-form:
// each level of width w takes ceil(w / a) steps behind its barrier, so a
// run of n such levels takes n * ceil(w / a) and the completion step
// follows from a walk over the remaining runs — O(runs spanned), not
// O(levels) or O(steps).  dag::ProfileJob::run_quantum executes that walk;
// this module holds the engines' shared helpers around it:
//
//   * steps_to_finish — exact steps until completion at a fixed
//     allotment, capped (the async engine's stride planner uses this to
//     find the next completion event without running anything).
//   * run_allotted_quantum — the one per-quantum execution block shared
//     by the synchronous quantum loop (flat, sharded and cluster runs) and
//     the open streaming driver (reallocation penalty, execution-policy
//     dispatch, availability and trace stamping).  Centralizing it keeps
//     the two call sites byte-identical by construction.
//
// The async engine advances in unit strides for jobs without a phase view
// (explicit DAGs); otherwise every stride ends at the next event
// (boundary, completion, admission, fault event or revocation expiry).
#pragma once

#include <cstdint>

#include "dag/job.hpp"
#include "sched/execution_policy.hpp"
#include "sched/quantum_stats.hpp"

namespace abg::sim::quantum_eval {

/// Exact steps until the job finishes at a fixed allotment, or `cap + 1`
/// when it cannot finish within `cap` steps (including procs == 0 with
/// work remaining).  Requires a non-null view, procs >= 0 and cap >= 0.
dag::Steps steps_to_finish(const dag::PhaseView& view, int procs,
                           dag::Steps cap);

/// Runs one allotted quantum of `job` through the execution policy and
/// stamps the stats the way every whole-quantum engine records them: a
/// reallocation penalty consumes quantum steps up front (a penalty >=
/// length voids the quantum entirely), availability is the allotment plus
/// the machine's leftover, and the stats carry the boundary's start step.
sched::QuantumStats run_allotted_quantum(dag::Job& job,
                                         const sched::ExecutionPolicy& execution,
                                         std::int64_t index, int desire,
                                         int allotment, dag::Steps length,
                                         dag::Steps penalty, int leftover,
                                         dag::Steps start_step);

}  // namespace abg::sim::quantum_eval
