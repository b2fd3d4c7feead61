// Tests for the extended DAG shapes: wavefront grids and random
// series-parallel compositions.
#include <gtest/gtest.h>

#include "dag/builders.hpp"
#include "dag/dag_job.hpp"

namespace abg::dag::builders {
namespace {

TEST(Grid, WavefrontShape) {
  DagJob job{grid(3, 4)};
  EXPECT_EQ(job.total_work(), 12);
  EXPECT_EQ(job.critical_path(), 6);  // 3 + 4 - 1
  EXPECT_EQ(job.level_sizes(), (std::vector<TaskCount>{1, 2, 3, 3, 2, 1}));
}

TEST(Grid, SingleRowIsChain) {
  DagJob job{grid(1, 6)};
  EXPECT_EQ(job.critical_path(), 6);
  EXPECT_EQ(job.total_work(), 6);
}

TEST(Grid, WavefrontParallelismRampsUpAndDown) {
  DagJob job{grid(4, 4)};
  std::vector<TaskCount> per_step;
  while (!job.finished()) {
    per_step.push_back(job.step(100, PickOrder::kBreadthFirst));
  }
  EXPECT_EQ(per_step,
            (std::vector<TaskCount>{1, 2, 3, 4, 3, 2, 1}));
}

TEST(Grid, Validation) {
  EXPECT_THROW(grid(0, 3), std::invalid_argument);
  EXPECT_THROW(grid(3, 0), std::invalid_argument);
}

TEST(SeriesParallel, DepthZeroIsSingleTask) {
  util::Rng rng(1);
  const DagStructure s = series_parallel(rng, 0, 3);
  EXPECT_EQ(s.node_count(), 1u);
}

TEST(SeriesParallel, ProducesValidDags) {
  util::Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const DagStructure s = series_parallel(rng, 5, 4);
    // DagJob's constructor validates acyclicity; executing it checks that
    // every task is reachable from the sources.
    DagJob job{s};
    while (!job.finished()) {
      job.step(16, PickOrder::kBreadthFirst);
    }
    EXPECT_EQ(job.completed_work(), job.total_work());
  }
}

TEST(SeriesParallel, Deterministic) {
  util::Rng a(5);
  util::Rng b(5);
  const DagStructure sa = series_parallel(a, 4, 3);
  const DagStructure sb = series_parallel(b, 4, 3);
  ASSERT_EQ(sa.node_count(), sb.node_count());
  for (std::size_t i = 0; i < sa.node_count(); ++i) {
    EXPECT_EQ(sa.children[i], sb.children[i]);
  }
}

TEST(SeriesParallel, Validation) {
  util::Rng rng(1);
  EXPECT_THROW(series_parallel(rng, -1, 3), std::invalid_argument);
  EXPECT_THROW(series_parallel(rng, 3, 1), std::invalid_argument);
}

}  // namespace
}  // namespace abg::dag::builders
