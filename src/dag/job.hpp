// Malleable-job abstraction.
//
// Following the paper (and Agrawal et al., PPoPP'06), a malleable job is a
// dynamically unfolding DAG of unit-size tasks.  A task scheduler executes
// the job one unit time step at a time with however many processors the OS
// allotted for the current scheduling quantum; on each step it may run up to
// `procs` ready tasks.
//
// Two measurements drive the feedback algorithms:
//   * completed work        — T1(q), tasks finished in the quantum, and
//   * fractional level progress — T∞(q), the number of DAG levels advanced,
//     where a partially completed level contributes completed/total
//     (Figure 2 of the paper: 0.8 + 1 + 0.6 = 2.4).
// Jobs therefore maintain a running `level_progress()` counter; the quantum
// engine differences it across quantum boundaries.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace abg::dag {

/// Count of unit tasks or processor cycles.
using TaskCount = std::int64_t;

/// Unit time steps.
using Steps = std::int64_t;

/// Order in which an execution policy picks ready tasks within a step.
enum class PickOrder {
  /// Any ready task; we use arrival (FIFO) order.  This is the plain greedy
  /// scheduler that A-Greedy builds on.
  kFifo,
  /// Lowest-level-first (breadth-first).  This is B-Greedy's order; it
  /// guarantees no task at level l completes later than any task at
  /// level l+1, which makes the per-quantum parallelism measurement exact.
  kBreadthFirst,
};

/// Outcome of executing (up to) one scheduling quantum of a job.
struct QuantumExecution {
  /// Tasks completed during the quantum: the quantum work T1(q).
  TaskCount work = 0;
  /// Fractional levels advanced during the quantum: the quantum
  /// critical-path length T∞(q).
  double cpl = 0.0;
  /// Unit steps consumed; equals the requested step budget unless the job
  /// finished early.
  Steps steps = 0;
  /// Steps on which no task executed (allotment of zero, or job drained).
  Steps idle_steps = 0;
  /// True when the job's last task completed during this quantum.
  bool finished = false;
};

/// `levels` consecutive barrier levels of `width` tasks each: one maximal
/// run of equal-width levels of a phase-structured job.
struct LevelRun {
  TaskCount width = 1;
  Steps levels = 1;

  friend bool operator==(const LevelRun&, const LevelRun&) = default;
};

/// Steps one barrier level of `tasks` tasks takes at `procs` (> 0) tasks
/// per step: ceil(tasks / procs), without the overflow of the
/// (tasks + procs - 1) / procs form.
inline Steps steps_to_drain(TaskCount tasks, int procs) {
  return tasks / procs + (tasks % procs != 0 ? 1 : 0);
}

/// Read-only view of a job's remaining phase structure, exposed by jobs
/// whose execution is a pure function of (level runs, position): run
/// `run` has `levels_left` levels left, the current one included, which
/// has `remaining_in_level` tasks left; its other levels and every later
/// run `r > run` are untouched.  A null `runs` means the job has no closed
/// form and engines must run it stepwise.  The async engine's stride
/// planner (sim/quantum_eval.hpp) reads this view to find a job's next
/// completion without mutating the job.
struct PhaseView {
  const std::vector<LevelRun>* runs = nullptr;
  std::size_t run = 0;
  Steps levels_left = 0;
  TaskCount remaining_in_level = 0;
};

/// A malleable job: a DAG of unit tasks executed step-by-step.
class Job {
 public:
  virtual ~Job() = default;

  /// True when every task has been executed.
  virtual bool finished() const = 0;

  /// Executes one unit time step with at most `procs` processors, picking
  /// ready tasks in the given order.  Tasks completed in this step make
  /// their children ready only from the next step onward.  Returns the
  /// number of tasks executed.  Requires procs >= 0.
  virtual TaskCount step(int procs, PickOrder order) = 0;

  /// Executes up to `budget` unit steps with a fixed allotment `procs`,
  /// stopping early if the job finishes.  The default implementation loops
  /// over step(); subclasses may provide a closed-form fast path.
  virtual QuantumExecution run_quantum(int procs, Steps budget,
                                       PickOrder order);

  /// Total work T1 of the job (number of tasks in the whole DAG).
  virtual TaskCount total_work() const = 0;

  /// Critical-path length T∞ (number of tasks on the longest chain).
  virtual Steps critical_path() const = 0;

  /// Tasks executed so far.
  virtual TaskCount completed_work() const = 0;

  /// Running fractional-level counter: sum over levels of the fraction of
  /// that level already completed.  Monotone from 0 to T∞.
  virtual double level_progress() const = 0;

  /// Number of currently ready (executable) tasks.
  virtual TaskCount ready_count() const = 0;

  /// The job's remaining phase structure, when it admits a closed form.
  /// The default — a null view — opts out; engines then advance the job
  /// stepwise.  The returned pointer must stay valid until the job is next
  /// mutated.
  virtual PhaseView phase_view() const { return {}; }

  /// Deep copy in the *initial* (unexecuted) state, regardless of how much
  /// of this instance has already run.  Used to replay the identical job
  /// under different schedulers.
  virtual std::unique_ptr<Job> fresh_clone() const = 0;
};

}  // namespace abg::dag
