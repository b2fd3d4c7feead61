// Level-barrier (fork-join) malleable job.
//
// The paper's experimental workload is data-parallel jobs with fork-join
// structure: the DAG alternates serial and parallel phases, and every task
// at level l+1 depends (via the fork/join tasks) on the completion of all
// tasks at level l.  Such a job is fully described by its sequence of level
// widths, which ProfileJob stores as maximal runs of equal width
// (LevelRun).  Execution state is (run, levels left in it, tasks left in
// the current level); each unit step completes min(procs, remaining)
// tasks.  A whole scheduling quantum executes in closed form: the full
// levels of a run at allotment a all take ceil(w / a) steps, so
// run_quantum jumps them in one step and costs O(runs spanned), not
// O(levels) or O(quantum length).  This is what makes the paper-scale
// experiments (5000 job sets, L = 1000) tractable.
//
// ProfileJob is behaviourally identical to a DagJob built over the
// equivalent barrier DAG (property-tested), for both pick orders: under a
// barrier every ready task is at the same level, so FIFO and breadth-first
// coincide.
#pragma once

#include <memory>
#include <vector>

#include "dag/job.hpp"

namespace abg::dag {

/// A malleable job defined by per-level task counts with barriers between
/// consecutive levels.
class ProfileJob final : public Job {
 public:
  /// Constructs from level widths, one per level.  Every width must be
  /// >= 1.  An empty profile is a zero-work job that is already finished.
  explicit ProfileJob(const std::vector<TaskCount>& level_widths);

  /// Constructs from runs of equal-width levels.  Every run needs width
  /// and levels >= 1; adjacent runs of equal width merge, so runs() is the
  /// unique maximal-run encoding.  Throws std::invalid_argument when the
  /// total work (sum of width * levels) or level count overflows int64.
  static ProfileJob from_runs(std::vector<LevelRun> runs);

  bool finished() const override;
  TaskCount step(int procs, PickOrder order) override;
  QuantumExecution run_quantum(int procs, Steps budget,
                               PickOrder order) override;
  TaskCount total_work() const override { return total_work_; }
  Steps critical_path() const override { return total_levels_; }
  TaskCount completed_work() const override { return completed_; }
  double level_progress() const override;
  TaskCount ready_count() const override;
  PhaseView phase_view() const override {
    return PhaseView{runs_.get(), run_, levels_left_, remaining_in_level_};
  }
  std::unique_ptr<Job> fresh_clone() const override;

  /// The maximal runs of equal-width levels this job is made of.
  const std::vector<LevelRun>& runs() const { return *runs_; }

 private:
  struct RunsTag {};
  ProfileJob(RunsTag, std::vector<LevelRun> runs);

  /// Rewinds the execution state to the first level.
  void restart();
  /// Moves past the current, fully drained level.
  void finish_level();

  std::shared_ptr<const std::vector<LevelRun>> runs_;
  TaskCount total_work_ = 0;
  Steps total_levels_ = 0;
  std::size_t run_ = 0;            // current run index
  Steps levels_left_ = 0;          // levels left in the run, current included
  Steps level_ = 0;                // absolute index of the current level
  TaskCount remaining_in_level_ = 0;
  TaskCount completed_ = 0;
};

}  // namespace abg::dag
