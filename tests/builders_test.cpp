#include "dag/builders.hpp"

#include <gtest/gtest.h>

#include "dag/characteristics.hpp"
#include "dag/profile_job.hpp"

namespace abg::dag::builders {
namespace {

TEST(Chain, Shape) {
  const DagStructure s = chain(4);
  EXPECT_EQ(s.node_count(), 4u);
  EXPECT_EQ(s.edge_count(), 3u);
  DagJob job{s};
  EXPECT_EQ(job.critical_path(), 4);
}

TEST(Chain, SingleNode) {
  const DagStructure s = chain(1);
  EXPECT_EQ(s.node_count(), 1u);
  EXPECT_EQ(s.edge_count(), 0u);
}

TEST(Chain, RejectsNonPositive) {
  EXPECT_THROW(chain(0), std::invalid_argument);
}

TEST(Diamond, Shape) {
  const DagStructure s = diamond(6);
  EXPECT_EQ(s.node_count(), 8u);
  EXPECT_EQ(s.edge_count(), 12u);
  DagJob job{s};
  EXPECT_EQ(job.critical_path(), 3);
}

TEST(Diamond, RejectsNonPositive) {
  EXPECT_THROW(diamond(0), std::invalid_argument);
}

TEST(BarrierProfile, LevelsMatchWidths) {
  const std::vector<TaskCount> widths{2, 3, 1};
  DagJob job{barrier_profile(widths)};
  EXPECT_EQ(job.total_work(), 6);
  EXPECT_EQ(job.critical_path(), 3);
  const auto& sizes = job.level_sizes();
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[0], 2);
  EXPECT_EQ(sizes[1], 3);
  EXPECT_EQ(sizes[2], 1);
}

TEST(BarrierProfile, EdgeCountIsSumOfAdjacentProducts) {
  const DagStructure s = barrier_profile({2, 3, 4});
  EXPECT_EQ(s.edge_count(), 2u * 3u + 3u * 4u);
}

TEST(BarrierProfile, EmptyAndSingle) {
  EXPECT_EQ(barrier_profile({}).node_count(), 0u);
  const DagStructure s = barrier_profile({5});
  EXPECT_EQ(s.node_count(), 5u);
  EXPECT_EQ(s.edge_count(), 0u);
}

TEST(BarrierProfile, RejectsZeroWidth) {
  EXPECT_THROW(barrier_profile({1, 0}), std::invalid_argument);
}

TEST(ForkJoin, SerialOnlyIsChain) {
  const DagStructure s = fork_join({{1, 5}});
  EXPECT_EQ(s.node_count(), 5u);
  DagJob job{s};
  EXPECT_EQ(job.critical_path(), 5);
}

TEST(ForkJoin, ClassicShape) {
  // serial(2) -> parallel(3 branches x 2) -> serial(1)
  const DagStructure s = fork_join({{1, 2}, {3, 2}, {1, 1}});
  DagJob job{s};
  EXPECT_EQ(job.total_work(), 2 + 6 + 1);
  // Critical path: 2 serial + 2 branch + 1 join = 5.
  EXPECT_EQ(job.critical_path(), 5);
  const auto& sizes = job.level_sizes();
  ASSERT_EQ(sizes.size(), 5u);
  EXPECT_EQ(sizes[0], 1);
  EXPECT_EQ(sizes[1], 1);
  EXPECT_EQ(sizes[2], 3);
  EXPECT_EQ(sizes[3], 3);
  EXPECT_EQ(sizes[4], 1);
}

TEST(ForkJoin, BranchesAreIndependentChains) {
  // Width-2, length-3 parallel phase between two serial tasks: branch
  // tasks depend only on their own predecessor, not on the sibling branch.
  const DagStructure s = fork_join({{1, 1}, {2, 3}, {1, 1}});
  DagJob job{s};
  // With 1 processor and FIFO order, one branch can advance while the
  // other waits — possible only without cross-branch barriers.
  job.step(10, PickOrder::kFifo);             // fork task
  EXPECT_EQ(job.ready_count(), 2);            // both branch heads
  EXPECT_EQ(job.step(1, PickOrder::kFifo), 1);
  EXPECT_EQ(job.ready_count(), 2);            // next of branch A + head of B
}

TEST(ForkJoin, RejectsBadSpecs) {
  EXPECT_THROW(fork_join({{0, 1}}), std::invalid_argument);
  EXPECT_THROW(fork_join({{1, 0}}), std::invalid_argument);
}

TEST(ForkJoin, StartsWithParallelPhase) {
  const DagStructure s = fork_join({{4, 1}, {1, 1}});
  DagJob job{s};
  EXPECT_EQ(job.ready_count(), 4);
  EXPECT_EQ(job.critical_path(), 2);
}

TEST(RandomLayered, LayerEqualsLevel) {
  util::Rng rng(5);
  const DagStructure s = random_layered(rng, 10, 5, 0.5);
  DagJob job{s};
  EXPECT_EQ(job.critical_path(), 10);
  // Every non-source node has at least one parent (guaranteed by builder),
  // so level l is non-empty for all l < 10.
  for (const TaskCount size : job.level_sizes()) {
    EXPECT_GE(size, 1);
  }
}

TEST(RandomLayered, Deterministic) {
  util::Rng a(42);
  util::Rng b(42);
  const DagStructure sa = random_layered(a, 8, 4, 0.3);
  const DagStructure sb = random_layered(b, 8, 4, 0.3);
  ASSERT_EQ(sa.node_count(), sb.node_count());
  for (std::size_t i = 0; i < sa.node_count(); ++i) {
    EXPECT_EQ(sa.children[i], sb.children[i]);
  }
}

TEST(RandomLayered, RejectsBadArguments) {
  util::Rng rng(1);
  EXPECT_THROW(random_layered(rng, 0, 4, 0.5), std::invalid_argument);
  EXPECT_THROW(random_layered(rng, 3, 0, 0.5), std::invalid_argument);
}

TEST(ProfileFromPhases, ExpandsWidths) {
  // A phase list and its per-level expansion build the same profile.
  const ProfileJob from_phases = ProfileJob::from_runs({{1, 2}, {5, 3}});
  const ProfileJob from_widths({1, 1, 5, 5, 5});
  EXPECT_EQ(from_phases.runs(), from_widths.runs());
  EXPECT_EQ(from_phases.total_work(), 17);
  EXPECT_EQ(from_phases.critical_path(), 5);
}

TEST(ProfileFromPhases, MatchesForkJoinWorkAndCpl) {
  const std::vector<PhaseSpec> phases{{1, 3}, {4, 2}, {1, 1}, {7, 2}};
  DagJob dag_job{fork_join(phases)};
  const ProfileJob profile_job = ProfileJob::from_runs(phases);
  EXPECT_EQ(dag_job.total_work(), profile_job.total_work());
  EXPECT_EQ(dag_job.critical_path(), profile_job.critical_path());
}

}  // namespace
}  // namespace abg::dag::builders
