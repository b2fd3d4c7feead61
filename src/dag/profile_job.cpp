#include "dag/profile_job.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace abg::dag {

ProfileJob::ProfileJob(std::vector<TaskCount> level_widths) {
  for (const TaskCount w : level_widths) {
    if (w < 1) {
      throw std::invalid_argument("ProfileJob: level width must be >= 1");
    }
  }
  total_work_ =
      std::accumulate(level_widths.begin(), level_widths.end(), TaskCount{0});
  widths_ = std::make_shared<const std::vector<TaskCount>>(
      std::move(level_widths));
  remaining_in_level_ = widths_->empty() ? 0 : (*widths_)[0];
}

bool ProfileJob::finished() const { return level_ >= widths_->size(); }

TaskCount ProfileJob::step(int procs, PickOrder /*order*/) {
  if (procs < 0) {
    throw std::invalid_argument("ProfileJob::step: negative processor count");
  }
  if (finished() || procs == 0) {
    return 0;
  }
  const TaskCount done =
      std::min<TaskCount>(procs, remaining_in_level_);
  remaining_in_level_ -= done;
  completed_ += done;
  if (remaining_in_level_ == 0) {
    ++level_;
    if (!finished()) {
      remaining_in_level_ = (*widths_)[level_];
    }
  }
  return done;
}

QuantumExecution ProfileJob::run_quantum(int procs, Steps budget,
                                         PickOrder /*order*/) {
  if (procs < 0 || budget < 0) {
    throw std::invalid_argument(
        "ProfileJob::run_quantum: negative procs or budget");
  }
  QuantumExecution out;
  const double cpl_before = level_progress();
  if (procs == 0) {
    // No processors: the quantum elapses with no progress.
    out.steps = finished() ? 0 : budget;
    out.idle_steps = out.steps;
    out.finished = finished();
    out.cpl = 0.0;
    return out;
  }
  Steps left = budget;
  while (left > 0 && !finished()) {
    // Steps needed to drain the current level at `procs` tasks per step.
    // The barrier means the final (possibly partial) step of a level cannot
    // spill into the next level.
    const Steps need = static_cast<Steps>(
        (remaining_in_level_ + procs - 1) / procs);
    if (need <= left) {
      out.work += remaining_in_level_;
      completed_ += remaining_in_level_;
      remaining_in_level_ = 0;
      left -= need;
      out.steps += need;
      ++level_;
      if (!finished()) {
        remaining_in_level_ = (*widths_)[level_];
      }
    } else {
      const TaskCount done = static_cast<TaskCount>(left) * procs;
      // done < remaining_in_level_ here, since need > left.
      remaining_in_level_ -= done;
      completed_ += done;
      out.work += done;
      out.steps += left;
      left = 0;
    }
  }
  out.cpl = level_progress() - cpl_before;
  out.finished = finished();
  return out;
}

Steps ProfileJob::critical_path() const {
  return static_cast<Steps>(widths_->size());
}

double ProfileJob::level_progress() const {
  if (finished()) {
    return static_cast<double>(widths_->size());
  }
  const double frac =
      1.0 - static_cast<double>(remaining_in_level_) /
                static_cast<double>((*widths_)[level_]);
  return static_cast<double>(level_) + frac;
}

TaskCount ProfileJob::ready_count() const {
  return finished() ? 0 : remaining_in_level_;
}

std::unique_ptr<Job> ProfileJob::fresh_clone() const {
  auto clone = std::unique_ptr<ProfileJob>(new ProfileJob(*this));
  clone->level_ = 0;
  clone->completed_ = 0;
  clone->remaining_in_level_ = widths_->empty() ? 0 : (*widths_)[0];
  return clone;
}

}  // namespace abg::dag
