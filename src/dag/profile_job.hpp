// Level-barrier (fork-join) malleable job.
//
// The paper's experimental workload is data-parallel jobs with fork-join
// structure: the DAG alternates serial and parallel phases, and every task
// at level l+1 depends (via the fork/join tasks) on the completion of all
// tasks at level l.  Such a job is fully described by its sequence of level
// widths.  ProfileJob exploits this: execution state is just (current level,
// tasks remaining in it), each unit step completes min(procs, remaining)
// tasks, and a whole scheduling quantum can be executed in closed form in
// O(levels spanned) instead of O(quantum length).  This is what makes the
// paper-scale experiments (5000 job sets, L = 1000) tractable.
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
  /// Constructs from level widths.  Every width must be >= 1.  An empty
  /// profile is a zero-work job that is already finished.
  explicit ProfileJob(std::vector<TaskCount> level_widths);

  bool finished() const override;
  TaskCount step(int procs, PickOrder order) override;
  QuantumExecution run_quantum(int procs, Steps budget,
                               PickOrder order) override;
  TaskCount total_work() const override { return total_work_; }
  Steps critical_path() const override;
  TaskCount completed_work() const override { return completed_; }
  double level_progress() const override;
  TaskCount ready_count() const override;
  PhaseView phase_view() const override {
    return PhaseView{widths_.get(), level_, remaining_in_level_};
  }
  std::unique_ptr<Job> fresh_clone() const override;

  /// The level widths this job was built from.
  const std::vector<TaskCount>& widths() const { return *widths_; }

 private:
  std::shared_ptr<const std::vector<TaskCount>> widths_;
  TaskCount total_work_ = 0;
  std::size_t level_ = 0;          // current level index
  TaskCount remaining_in_level_ = 0;
  TaskCount completed_ = 0;
};

}  // namespace abg::dag
