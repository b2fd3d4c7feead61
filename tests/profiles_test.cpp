#include "workload/profiles.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "dag/profile_job.hpp"

namespace abg::workload {
namespace {

TEST(ConstantProfile, Shape) {
  EXPECT_EQ(constant_profile(7, 5), (std::vector<dag::LevelRun>{{7, 5}}));
}

TEST(ConstantProfile, LongJobIsOneRun) {
  // Twenty million levels cost one run, not twenty million widths.
  const auto job =
      dag::ProfileJob::from_runs(constant_profile(8, 20'000'000));
  EXPECT_EQ(job.runs(), (std::vector<dag::LevelRun>{{8, 20'000'000}}));
  EXPECT_EQ(job.critical_path(), 20'000'000);
  EXPECT_EQ(job.total_work(), 160'000'000);
}

TEST(ConstantProfile, ZeroLevelsIsEmpty) {
  EXPECT_TRUE(constant_profile(3, 0).empty());
}

TEST(ConstantProfile, Validation) {
  EXPECT_THROW(constant_profile(0, 5), std::invalid_argument);
  EXPECT_THROW(constant_profile(3, -1), std::invalid_argument);
}

TEST(ConstantParallelismChains, FullUtilizationBelowWidth) {
  // The chain job keeps utilization exact for any allotment <= width —
  // unlike the barrier profile, whose ceil(width/allotment) quantization
  // wastes partial steps.
  const auto job = constant_parallelism_chains(10, 50);
  EXPECT_EQ(job->total_work(), 500);
  EXPECT_EQ(job->critical_path(), 50);
  // Warm-up: first step only the 10 chain heads are ready.
  EXPECT_EQ(job->step(7, dag::PickOrder::kBreadthFirst), 7);
  // From then on, 7 processors always find 7 ready tasks.
  for (int s = 0; s < 30; ++s) {
    ASSERT_EQ(job->step(7, dag::PickOrder::kBreadthFirst), 7);
  }
}

TEST(ConstantParallelismChains, MeasuresWidthAsParallelism) {
  const auto job = constant_parallelism_chains(8, 100);
  // Execute one "quantum" of 40 steps at allotment 4: work 160, and the
  // measured parallelism T1/T∞ equals the width 8.
  const auto exec = job->run_quantum(4, 40, dag::PickOrder::kBreadthFirst);
  EXPECT_EQ(exec.work, 160);
  EXPECT_NEAR(static_cast<double>(exec.work) / exec.cpl, 8.0, 1e-9);
}

TEST(ConstantParallelismChains, Validation) {
  EXPECT_THROW(constant_parallelism_chains(0, 5), std::invalid_argument);
  EXPECT_THROW(constant_parallelism_chains(3, 0), std::invalid_argument);
}

TEST(StepProfile, Shape) {
  EXPECT_EQ(step_profile(1, 2, 9, 3),
            (std::vector<dag::LevelRun>{{1, 2}, {9, 3}}));
}

TEST(StepProfile, ZeroLevelPhasesAreLeftOut) {
  EXPECT_EQ(step_profile(1, 0, 9, 3), (std::vector<dag::LevelRun>{{9, 3}}));
  EXPECT_EQ(step_profile(1, 2, 9, 0), (std::vector<dag::LevelRun>{{1, 2}}));
  EXPECT_TRUE(step_profile(1, 0, 9, 0).empty());
}

TEST(SquareWave, RepeatsPeriods) {
  EXPECT_EQ(square_wave_profile(1, 1, 5, 2, 3),
            (std::vector<dag::LevelRun>{
                {1, 1}, {5, 2}, {1, 1}, {5, 2}, {1, 1}, {5, 2}}));
}

TEST(SquareWave, BuildsTheJobOfItsLevelWidths) {
  // The runs describe the same job as the level-by-level widths, equal
  // phases (low == high) included: from_runs merges them.
  for (const dag::TaskCount high : {5, 1}) {
    const std::vector<dag::LevelRun> runs =
        square_wave_profile(1, 3, high, 4, 5);
    std::vector<dag::TaskCount> widths;
    for (const dag::LevelRun& run : runs) {
      widths.insert(widths.end(), static_cast<std::size_t>(run.levels),
                    run.width);
    }
    EXPECT_EQ(dag::ProfileJob::from_runs(runs).runs(),
              dag::ProfileJob(widths).runs());
  }
}

TEST(SquareWave, RejectsZeroPeriods) {
  EXPECT_THROW(square_wave_profile(1, 1, 5, 1, 0), std::invalid_argument);
}

TEST(RandomWalk, StaysInBounds) {
  util::Rng rng(3);
  const auto w = random_walk_profile(rng, 500, 64, 2.0);
  ASSERT_EQ(w.size(), 500u);
  for (const auto x : w) {
    EXPECT_GE(x, 1);
    EXPECT_LE(x, 64);
  }
}

TEST(RandomWalk, StepRatioBounded) {
  util::Rng rng(9);
  const auto w = random_walk_profile(rng, 300, 128, 1.5);
  for (std::size_t i = 1; i < w.size(); ++i) {
    const double ratio = static_cast<double>(w[i]) /
                         static_cast<double>(w[i - 1]);
    // Rounding can push slightly past the multiplicative step bound.
    EXPECT_LE(ratio, 1.5 + 0.51);
    EXPECT_GE(ratio, 1.0 / (1.5 + 0.51));
  }
}

TEST(RandomWalk, Deterministic) {
  util::Rng a(21);
  util::Rng b(21);
  EXPECT_EQ(random_walk_profile(a, 100, 32, 2.0),
            random_walk_profile(b, 100, 32, 2.0));
}

TEST(RandomWalk, Validation) {
  util::Rng rng(1);
  EXPECT_THROW(random_walk_profile(rng, -1, 8, 2.0), std::invalid_argument);
  EXPECT_THROW(random_walk_profile(rng, 5, 0, 2.0), std::invalid_argument);
  EXPECT_THROW(random_walk_profile(rng, 5, 8, 0.5), std::invalid_argument);
}

}  // namespace
}  // namespace abg::workload
