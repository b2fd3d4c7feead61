#include "dag/profile_job.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>

#include "util/rng.hpp"

namespace abg::dag {
namespace {

TEST(ProfileJob, RejectsZeroWidth) {
  EXPECT_THROW(ProfileJob({1, 0, 2}), std::invalid_argument);
}

TEST(ProfileJob, EmptyProfileIsFinished) {
  ProfileJob job({});
  EXPECT_TRUE(job.finished());
  EXPECT_EQ(job.total_work(), 0);
  EXPECT_EQ(job.critical_path(), 0);
  EXPECT_EQ(job.ready_count(), 0);
}

TEST(ProfileJob, WorkAndCriticalPath) {
  ProfileJob job({1, 5, 1, 3});
  EXPECT_EQ(job.total_work(), 10);
  EXPECT_EQ(job.critical_path(), 4);
}

TEST(ProfileJob, WidthAccessors) {
  ProfileJob job({2, 7, 7, 7, 2});
  EXPECT_EQ(job.runs(), (std::vector<LevelRun>{{2, 1}, {7, 3}, {2, 1}}));
}

TEST(ProfileJob, FromRunsMergesAdjacentEqualWidths) {
  const ProfileJob job =
      ProfileJob::from_runs({{1, 2}, {1, 3}, {4, 1}, {4, 2}, {1, 1}});
  EXPECT_EQ(job.runs(), (std::vector<LevelRun>{{1, 5}, {4, 3}, {1, 1}}));
  EXPECT_EQ(job.total_work(), 5 + 12 + 1);
  EXPECT_EQ(job.critical_path(), 9);
  EXPECT_THROW(ProfileJob::from_runs({{0, 2}}), std::invalid_argument);
  EXPECT_THROW(ProfileJob::from_runs({{3, 0}}), std::invalid_argument);
}

TEST(ProfileJob, FromRunsRejectsInt64Overflow) {
  constexpr TaskCount kMax = std::numeric_limits<TaskCount>::max();
  // One run whose width * levels overflows.
  EXPECT_THROW(ProfileJob::from_runs({{kMax / 2 + 1, 2}}),
               std::invalid_argument);
  // Runs that fit alone but whose work sums past the limit.
  EXPECT_THROW(ProfileJob::from_runs({{kMax / 2, 1}, {2, kMax / 4 + 2}}),
               std::invalid_argument);
  // A level count past the limit (equal widths that would merge).
  EXPECT_THROW(ProfileJob::from_runs({{1, kMax}, {1, 1}}),
               std::invalid_argument);
  // Exactly at the limit is fine.
  const ProfileJob at_limit = ProfileJob::from_runs({{1, kMax - 1}, {1, 1}});
  EXPECT_EQ(at_limit.total_work(), kMax);
  EXPECT_EQ(at_limit.critical_path(), kMax);
}

TEST(ProfileJob, StepRespectsBarrier) {
  // Level widths {3, 2}: with 5 processors the first step can only run the
  // 3 tasks of level 0.
  ProfileJob job({3, 2});
  EXPECT_EQ(job.step(5, PickOrder::kFifo), 3);
  EXPECT_EQ(job.step(5, PickOrder::kFifo), 2);
  EXPECT_TRUE(job.finished());
}

TEST(ProfileJob, StepPartialLevel) {
  ProfileJob job({5});
  EXPECT_EQ(job.step(2, PickOrder::kFifo), 2);
  EXPECT_EQ(job.ready_count(), 3);
  EXPECT_EQ(job.step(2, PickOrder::kFifo), 2);
  EXPECT_EQ(job.step(2, PickOrder::kFifo), 1);
  EXPECT_TRUE(job.finished());
}

TEST(ProfileJob, ZeroProcsNoProgress) {
  ProfileJob job({2});
  EXPECT_EQ(job.step(0, PickOrder::kFifo), 0);
  EXPECT_FALSE(job.finished());
}

TEST(ProfileJob, NegativeProcsThrow) {
  ProfileJob job({2});
  EXPECT_THROW(job.step(-1, PickOrder::kFifo), std::invalid_argument);
}

TEST(ProfileJob, LevelProgressFractions) {
  ProfileJob job({4, 2});
  EXPECT_DOUBLE_EQ(job.level_progress(), 0.0);
  job.step(1, PickOrder::kFifo);
  EXPECT_DOUBLE_EQ(job.level_progress(), 0.25);
  job.step(3, PickOrder::kFifo);
  EXPECT_DOUBLE_EQ(job.level_progress(), 1.0);
  job.step(1, PickOrder::kFifo);
  EXPECT_DOUBLE_EQ(job.level_progress(), 1.5);
  job.step(1, PickOrder::kFifo);
  EXPECT_DOUBLE_EQ(job.level_progress(), 2.0);
  EXPECT_TRUE(job.finished());
}

TEST(ProfileJob, RunQuantumClosedFormMatchesStepLoop) {
  util::Rng rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<TaskCount> widths;
    const auto levels = rng.uniform_int(1, 30);
    widths.reserve(static_cast<std::size_t>(levels));
    for (int l = 0; l < levels; ++l) {
      widths.push_back(rng.uniform_int(1, 12));
    }
    ProfileJob fast(widths);
    ProfileJob slow(widths);
    while (!fast.finished() || !slow.finished()) {
      const int procs = static_cast<int>(rng.uniform_int(0, 6));
      const Steps budget = rng.uniform_int(1, 9);
      const QuantumExecution qf =
          fast.run_quantum(procs, budget, PickOrder::kFifo);
      // Reference: the generic per-step loop from the Job base class.
      QuantumExecution qs;
      const double cpl_before = slow.level_progress();
      for (Steps s = 0; s < budget && !slow.finished(); ++s) {
        const TaskCount done = slow.step(procs, PickOrder::kFifo);
        ++qs.steps;
        qs.work += done;
        if (done == 0) {
          ++qs.idle_steps;
        }
      }
      qs.cpl = slow.level_progress() - cpl_before;
      qs.finished = slow.finished();

      ASSERT_EQ(qf.work, qs.work) << "trial " << trial;
      ASSERT_EQ(qf.steps, qs.steps);
      ASSERT_EQ(qf.idle_steps, qs.idle_steps);
      ASSERT_EQ(qf.finished, qs.finished);
      ASSERT_NEAR(qf.cpl, qs.cpl, 1e-12);
      ASSERT_EQ(fast.completed_work(), slow.completed_work());
      if (procs == 0 && !qs.finished) {
        break;  // neither job progresses; avoid an infinite loop
      }
    }
    if (!fast.finished()) {
      // Drain to completion for the next trial's invariants.
      fast.run_quantum(4, 1 << 20, PickOrder::kFifo);
      slow.run_quantum(4, 1 << 20, PickOrder::kFifo);
      EXPECT_TRUE(fast.finished());
      EXPECT_TRUE(slow.finished());
    }
  }
}

TEST(ProfileJob, RunQuantumBarrierWastesTailOfStep) {
  // Level {3} then {4} with 4 processors: step 1 completes the 3 tasks of
  // level 0 (the 4th processor idles across the barrier), step 2 the next
  // level.
  ProfileJob job({3, 4});
  const QuantumExecution exec = job.run_quantum(4, 2, PickOrder::kFifo);
  EXPECT_EQ(exec.work, 7);
  EXPECT_EQ(exec.steps, 2);
  EXPECT_TRUE(exec.finished);
}

TEST(ProfileJob, RunQuantumZeroProcsBurnsBudget) {
  ProfileJob job({2});
  const QuantumExecution exec = job.run_quantum(0, 5, PickOrder::kFifo);
  EXPECT_EQ(exec.work, 0);
  EXPECT_EQ(exec.steps, 5);
  EXPECT_EQ(exec.idle_steps, 5);
  EXPECT_FALSE(exec.finished);
}

TEST(ProfileJob, RunQuantumFinishedJobConsumesNothing) {
  ProfileJob job({1});
  job.step(1, PickOrder::kFifo);
  ASSERT_TRUE(job.finished());
  const QuantumExecution exec = job.run_quantum(3, 5, PickOrder::kFifo);
  EXPECT_EQ(exec.steps, 0);
  EXPECT_EQ(exec.work, 0);
  EXPECT_TRUE(exec.finished);
}

TEST(ProfileJob, FreshCloneRestarts) {
  ProfileJob job({2, 3});
  job.step(2, PickOrder::kFifo);
  const auto clone = job.fresh_clone();
  EXPECT_EQ(clone->completed_work(), 0);
  EXPECT_EQ(clone->total_work(), 5);
  EXPECT_DOUBLE_EQ(clone->level_progress(), 0.0);
  EXPECT_FALSE(clone->finished());
}

TEST(ProfileJob, ReadyCountTracksCurrentLevel) {
  ProfileJob job({2, 3});
  EXPECT_EQ(job.ready_count(), 2);
  job.step(2, PickOrder::kFifo);
  EXPECT_EQ(job.ready_count(), 3);
  job.step(3, PickOrder::kFifo);
  EXPECT_EQ(job.ready_count(), 0);
}

}  // namespace
}  // namespace abg::dag
