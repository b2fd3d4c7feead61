// Unit tests for the root of the hierarchical allocation tree: group
// dealing, the root split (sums to exactly P, rotating surplus spread) and
// the group-allocator names — the contract the sharded engine's
// determinism rests on.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <stdexcept>

#include "alloc/equipartition.hpp"
#include "hier/desire_aggregator.hpp"
#include "util/rng.hpp"

namespace abg::hier {
namespace {

int sum(const std::vector<int>& v) {
  return std::accumulate(v.begin(), v.end(), 0);
}

std::unique_ptr<alloc::Allocator> deq() {
  return std::make_unique<alloc::EquiPartition>();
}

TEST(GroupOf, DealsRoundRobin) {
  EXPECT_EQ(group_of(0, 4), 0u);
  EXPECT_EQ(group_of(1, 4), 1u);
  EXPECT_EQ(group_of(4, 4), 0u);
  EXPECT_EQ(group_of(7, 4), 3u);
  // One group absorbs everything: the flat special case.
  for (std::size_t job = 0; job < 10; ++job) {
    EXPECT_EQ(group_of(job, 1), 0u);
  }
}

TEST(DesireAggregator, RejectsBadConstruction) {
  EXPECT_THROW(DesireAggregator(0, deq()), std::invalid_argument);
  EXPECT_THROW(DesireAggregator(-3, deq()), std::invalid_argument);
  EXPECT_THROW(DesireAggregator(2, nullptr), std::invalid_argument);
}

TEST(DesireAggregator, SplitBudgetsSumToExactlyTheMachine) {
  // The budgets must always exhaust the machine — surplus processors are
  // spread over the groups — on saturated, undersubscribed and idle
  // desire vectors alike.
  util::Rng rng(2024);
  for (int groups : {1, 3, 8}) {
    DesireAggregator agg(groups, deq());
    for (int trial = 0; trial < 100; ++trial) {
      std::vector<int> desires(static_cast<std::size_t>(groups));
      for (int& d : desires) {
        d = static_cast<int>(rng.uniform_int(0, 60));
      }
      const int machine = static_cast<int>(rng.uniform_int(0, 48));
      const std::vector<int> budgets = agg.split(desires, machine);
      ASSERT_EQ(budgets.size(), desires.size());
      EXPECT_EQ(sum(budgets), machine) << groups << " groups, trial "
                                       << trial;
      for (int b : budgets) {
        EXPECT_GE(b, 0);
      }
    }
  }
}

TEST(DesireAggregator, OneGroupBudgetIsTheWholeMachine) {
  // The flat-equivalence contract: with one group the budget is P no
  // matter the desire, so the group allocator sees the full machine.
  DesireAggregator agg(1, deq());
  EXPECT_EQ(agg.split({5}, 32), std::vector<int>{32});
  EXPECT_EQ(agg.split({0}, 32), std::vector<int>{32});
  EXPECT_EQ(agg.split({1000}, 32), std::vector<int>{32});
}

TEST(DesireAggregator, SaturatedSplitIsConservative) {
  // When demand covers the machine there is no surplus, so the root's
  // water-fill bound budget_g <= desire_g survives the spread.
  DesireAggregator agg(4, deq());
  const std::vector<int> desires = {10, 20, 30, 40};
  const std::vector<int> budgets = agg.split(desires, 32);
  EXPECT_EQ(sum(budgets), 32);
  for (std::size_t g = 0; g < budgets.size(); ++g) {
    EXPECT_LE(budgets[g], desires[g]) << "group " << g;
  }
}

TEST(DesireAggregator, SurplusSpreadRotates) {
  // 3 groups, desires met, surplus 2: the two extra processors land on a
  // rotating pair of groups so repeated splits don't pin the same groups.
  DesireAggregator agg(3, deq());
  const std::vector<int> desires = {2, 2, 2};
  const std::vector<int> first = agg.split(desires, 8);
  const std::vector<int> second = agg.split(desires, 8);
  EXPECT_EQ(sum(first), 8);
  EXPECT_EQ(sum(second), 8);
  EXPECT_NE(first, second) << "surplus landed on the same groups twice";
}

TEST(MakeGroupAllocator, KnownNamesAndRejection) {
  EXPECT_EQ(make_group_allocator("deq")->name(), "equi-partition");
  EXPECT_EQ(make_group_allocator("rr")->name(), "round-robin");
  EXPECT_THROW(make_group_allocator("greedy"), std::invalid_argument);
  EXPECT_THROW(make_group_allocator(""), std::invalid_argument);
}

}  // namespace
}  // namespace abg::hier
