// Skip-ahead quantum evaluation.
//
// For phase-structured jobs (dag::PhaseView: level widths + position) the
// outcome of running a whole quantum at a fixed allotment is closed-form:
// each level of width w takes ceil(w / a) steps behind its barrier, so
// work, span, phases crossed, held/idle cycles and the completion step
// follow from a walk over the levels the quantum spans — O(phase
// transitions), not O(steps).  This module is that arithmetic, factored
// out of the engines:
//
//   * evaluate_quantum — the full quantum outcome, non-mutating.  The
//     differential tests pin it step-for-step against the stepwise
//     executor; engines and tools can use it to predict a quantum without
//     touching the job.
//   * steps_to_finish — exact steps until completion at a fixed
//     allotment, capped (the async engine's stride planner uses this to
//     find the next completion event without running anything).
//   * supports_skip_ahead — whether a job exposes a phase view at all.
//   * run_allotted_quantum — the one per-quantum execution block shared
//     by the synchronous quantum loop (flat, sharded and cluster runs) and
//     the open streaming driver (reallocation penalty, execution-policy
//     dispatch, availability and trace stamping).  Centralizing it keeps
//     the two call sites byte-identical by construction.
//
// Engines fall back to stepwise execution whenever closed form does not
// apply: jobs without a phase view (explicit DAGs), fault windows (crash /
// capacity events need sub-quantum resolution), and — in the async
// engine — any step where an event (boundary, completion, admission,
// repartition) lands inside the planned stride.
#pragma once

#include <cstdint>

#include "dag/job.hpp"
#include "sched/execution_policy.hpp"
#include "sched/quantum_stats.hpp"

namespace abg::sim::quantum_eval {

/// Closed-form outcome of one quantum at a fixed allotment.
struct PhaseOutcome {
  /// Tasks completed: the quantum work T1(q).
  dag::TaskCount work = 0;
  /// Fractional levels advanced: the quantum critical-path T∞(q).
  double cpl = 0.0;
  /// Unit steps consumed (== budget unless the job finishes early).
  dag::Steps steps_used = 0;
  /// Steps on which no task executed (allotment of zero).
  dag::Steps idle_steps = 0;
  /// Level barriers fully crossed during the quantum.
  std::int64_t phases_crossed = 0;
  /// Processor cycles held: allotment · steps_used.
  dag::TaskCount held_cycles = 0;
  /// Held cycles that executed no task (the quantum's exact waste).
  dag::TaskCount idle_cycles = 0;
  /// True when the job's last task completes within the budget.
  bool finished = false;
  /// Position after the quantum: current level and the partial-phase
  /// remainder (tasks left in it).  end_level == widths size when
  /// finished.
  std::size_t end_level = 0;
  dag::TaskCount end_remaining = 0;
};

/// Computes the outcome of running up to `budget` steps at allotment
/// `procs` from the position described by `view`, without mutating
/// anything.  Mirrors the stepwise executor exactly (property-tested):
/// barriers mean a level's final partial step cannot spill into the next
/// level, and a zero allotment idles the whole budget.  Requires a
/// non-null view, procs >= 0 and budget >= 0.
PhaseOutcome evaluate_quantum(const dag::PhaseView& view, int procs,
                              dag::Steps budget);

/// Exact steps until the job finishes at a fixed allotment, or `cap + 1`
/// when it cannot finish within `cap` steps (including procs == 0 with
/// work remaining).  Requires a non-null view, procs >= 0 and cap >= 0.
dag::Steps steps_to_finish(const dag::PhaseView& view, int procs,
                           dag::Steps cap);

/// True when the job exposes a phase structure the evaluator understands.
bool supports_skip_ahead(const dag::Job& job);

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
