#include "dag/profile_job.hpp"

#include <algorithm>
#include <stdexcept>

namespace abg::dag {

namespace {

/// Run-length encodes level widths; from_runs validates the result.
std::vector<LevelRun> runs_of(const std::vector<TaskCount>& widths) {
  std::vector<LevelRun> runs;
  for (const TaskCount w : widths) {
    if (!runs.empty() && runs.back().width == w) {
      ++runs.back().levels;
    } else {
      runs.push_back(LevelRun{w, 1});
    }
  }
  return runs;
}

}  // namespace

ProfileJob::ProfileJob(const std::vector<TaskCount>& level_widths)
    : ProfileJob(from_runs(runs_of(level_widths))) {}

ProfileJob ProfileJob::from_runs(std::vector<LevelRun> runs) {
  return ProfileJob(RunsTag{}, std::move(runs));
}

ProfileJob::ProfileJob(RunsTag /*tag*/, std::vector<LevelRun> runs) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const LevelRun run = runs[i];
    if (run.width < 1) {
      throw std::invalid_argument("ProfileJob: level width must be >= 1");
    }
    if (run.levels < 1) {
      throw std::invalid_argument("ProfileJob: run levels must be >= 1");
    }
    TaskCount work = 0;
    if (__builtin_mul_overflow(run.width, run.levels, &work) ||
        __builtin_add_overflow(total_work_, work, &total_work_) ||
        __builtin_add_overflow(total_levels_, run.levels,
                               &total_levels_)) {
      throw std::invalid_argument(
          "ProfileJob: total work or level count overflows int64");
    }
    if (kept > 0 && runs[kept - 1].width == run.width) {
      runs[kept - 1].levels += run.levels;  // bounded by total_levels_
    } else {
      runs[kept++] = run;
    }
  }
  runs.resize(kept);
  runs_ = std::make_shared<const std::vector<LevelRun>>(std::move(runs));
  restart();
}

void ProfileJob::restart() {
  run_ = 0;
  level_ = 0;
  completed_ = 0;
  levels_left_ = runs_->empty() ? 0 : runs_->front().levels;
  remaining_in_level_ = runs_->empty() ? 0 : runs_->front().width;
}

void ProfileJob::finish_level() {
  ++level_;
  if (--levels_left_ > 0) {
    remaining_in_level_ = (*runs_)[run_].width;
    return;
  }
  ++run_;
  if (!finished()) {
    levels_left_ = (*runs_)[run_].levels;
    remaining_in_level_ = (*runs_)[run_].width;
  }
}

bool ProfileJob::finished() const { return run_ >= runs_->size(); }

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
    finish_level();
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
    const TaskCount width = (*runs_)[run_].width;
    const Steps per_level = steps_to_drain(width, procs);
    if (remaining_in_level_ == width && levels_left_ > 1 &&
        per_level <= left) {
      // At the start of a level inside a run: every full level costs the
      // same ceil(w / a) steps, so jump as many as the budget allows.  The
      // run's last level takes the generic path below, which crosses into
      // the next run.  k * width <= total work and k * per_level <= left,
      // so neither product overflows.
      const Steps k = std::min(levels_left_ - 1, left / per_level);
      out.work += k * width;
      completed_ += k * width;
      level_ += k;
      levels_left_ -= k;
      left -= k * per_level;
      out.steps += k * per_level;
      continue;
    }
    // Steps needed to drain the current level at `procs` tasks per step.
    // The barrier means the final (possibly partial) step of a level cannot
    // spill into the next level.
    const Steps need = steps_to_drain(remaining_in_level_, procs);
    if (need <= left) {
      out.work += remaining_in_level_;
      completed_ += remaining_in_level_;
      remaining_in_level_ = 0;
      left -= need;
      out.steps += need;
      finish_level();
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

double ProfileJob::level_progress() const {
  if (finished()) {
    return static_cast<double>(total_levels_);
  }
  const double frac =
      1.0 - static_cast<double>(remaining_in_level_) /
                static_cast<double>((*runs_)[run_].width);
  return static_cast<double>(level_) + frac;
}

TaskCount ProfileJob::ready_count() const {
  return finished() ? 0 : remaining_in_level_;
}

std::unique_ptr<Job> ProfileJob::fresh_clone() const {
  auto clone = std::unique_ptr<ProfileJob>(new ProfileJob(*this));
  clone->restart();
  return clone;
}

}  // namespace abg::dag
