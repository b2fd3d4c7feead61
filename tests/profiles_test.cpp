#include "workload/profiles.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace abg::workload {
namespace {

TEST(ConstantProfile, Shape) {
  const auto w = constant_profile(7, 5);
  EXPECT_EQ(w, (std::vector<dag::TaskCount>{7, 7, 7, 7, 7}));
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
  const auto w = step_profile(1, 2, 9, 3);
  EXPECT_EQ(w, (std::vector<dag::TaskCount>{1, 1, 9, 9, 9}));
}

TEST(SquareWave, RepeatsPeriods) {
  const auto w = square_wave_profile(1, 1, 5, 2, 3);
  EXPECT_EQ(w, (std::vector<dag::TaskCount>{1, 5, 5, 1, 5, 5, 1, 5, 5}));
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
