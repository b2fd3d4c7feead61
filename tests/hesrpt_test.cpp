#include "alloc/hesrpt.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <vector>

namespace abg::alloc {
namespace {

int total(const std::vector<int>& allotments) {
  return std::accumulate(allotments.begin(), allotments.end(), 0);
}

TEST(HeSrpt, RejectsPowerOutsideUnitInterval) {
  EXPECT_THROW(HeSrpt(0.0), std::invalid_argument);
  EXPECT_THROW(HeSrpt(-0.5), std::invalid_argument);
  EXPECT_THROW(HeSrpt(1.5), std::invalid_argument);
  EXPECT_NO_THROW(HeSrpt(1.0));
}

TEST(HeSrpt, SharesTelescopeToWholeMachine) {
  HeSrpt alloc(0.5);
  const std::vector<int> requests = {64, 64, 64, 64};
  const std::vector<double> remaining = {400.0, 300.0, 200.0, 100.0};
  const std::vector<int> result = alloc.allocate_sized(requests, remaining, 64);
  EXPECT_EQ(total(result), 64);
  for (std::size_t i = 0; i < result.size(); ++i) {
    EXPECT_LE(result[i], requests[i]);
    EXPECT_GE(result[i], 0);
  }
}

TEST(HeSrpt, SmallestRemainingGetsLargestShare) {
  HeSrpt alloc(0.5);
  const std::vector<int> requests = {64, 64, 64};
  const std::vector<double> remaining = {900.0, 500.0, 100.0};
  const std::vector<int> result = alloc.allocate_sized(requests, remaining, 64);
  // Rank order is largest-remaining first, so shares ascend with rank:
  // job 2 (smallest remaining) strictly dominates job 0 (largest).
  EXPECT_GT(result[2], result[1]);
  EXPECT_GT(result[1], result[0]);
}

TEST(HeSrpt, PowerOneIsPureSrpt) {
  HeSrpt alloc(1.0);
  const std::vector<int> requests = {32, 32, 32};
  const std::vector<double> remaining = {300.0, 100.0, 200.0};
  const std::vector<int> result = alloc.allocate_sized(requests, remaining, 32);
  // p = 1 is the linear-speedup limit of boundary(k) = (k/n)^(1/(1-p)):
  // every boundary below k = n is 0, so the smallest-remaining job takes
  // the machine.
  EXPECT_EQ(result[1], 32);
  EXPECT_EQ(result[0], 0);
  EXPECT_EQ(result[2], 0);
}

TEST(HeSrpt, SmallPowerApproachesEqui) {
  HeSrpt alloc(0.05);
  const std::vector<int> requests = {32, 32, 32};
  const std::vector<double> remaining = {300.0, 100.0, 200.0};
  const std::vector<int> result = alloc.allocate_sized(requests, remaining, 32);
  // p -> 0 sends the exponent 1/(1-p) to 1, so the boundaries approach
  // k/n: an almost even split.  The closed form at p = 0.05 gives ideal
  // shares 10.07, 10.81 and 11.12 by rank (largest remaining first); the
  // leftover processor goes to the largest fractional part, rank 2.
  EXPECT_EQ(result[0], 10);
  EXPECT_EQ(result[2], 11);
  EXPECT_EQ(result[1], 11);
}

TEST(HeSrpt, RequestCapsWaterFillToNextSmallest) {
  HeSrpt alloc(1.0);
  const std::vector<int> requests = {32, 4, 32};
  const std::vector<double> remaining = {300.0, 100.0, 200.0};
  const std::vector<int> result = alloc.allocate_sized(requests, remaining, 32);
  // SRPT wants everything on job 1, but its request caps at 4; the
  // surplus water-fills to the next-smallest remaining job.
  EXPECT_EQ(result[1], 4);
  EXPECT_EQ(result[2], 28);
  EXPECT_EQ(result[0], 0);
}

TEST(HeSrpt, ZeroRequestsGetNothing) {
  HeSrpt alloc(0.5);
  const std::vector<int> requests = {16, 0, 16};
  const std::vector<double> remaining = {100.0, 50.0, 200.0};
  const std::vector<int> result = alloc.allocate_sized(requests, remaining, 16);
  EXPECT_EQ(result[1], 0);
  EXPECT_EQ(total(result), 16);
}

TEST(HeSrpt, SizeFreeFallbackIsDeterministic) {
  HeSrpt alloc(0.5);
  const std::vector<int> requests = {8, 8, 8, 8};
  const std::vector<int> first = alloc.allocate(requests, 16);
  const std::vector<int> second = alloc.allocate(requests, 16);
  EXPECT_EQ(first, second);
  EXPECT_EQ(total(first), 16);
  EXPECT_TRUE(alloc.size_aware());
}

TEST(HeSrpt, MismatchedSizesVectorThrows) {
  HeSrpt alloc(0.5);
  EXPECT_THROW(alloc.allocate_sized({8, 8}, {1.0}, 16),
               std::invalid_argument);
}

TEST(HeSrpt, NeverExceedsMachineOrRequests) {
  HeSrpt alloc(0.3);
  const std::vector<int> requests = {5, 9, 2, 7, 1, 12};
  const std::vector<double> remaining = {60.0, 10.0, 80.0, 20.0, 90.0, 40.0};
  for (const int p : {1, 3, 8, 17, 36, 100}) {
    const std::vector<int> result =
        alloc.allocate_sized(requests, remaining, p);
    int sum = 0;
    for (std::size_t i = 0; i < result.size(); ++i) {
      EXPECT_GE(result[i], 0);
      EXPECT_LE(result[i], requests[i]);
      sum += result[i];
    }
    EXPECT_LE(sum, p);
  }
}

TEST(HeSrpt, CloneCarriesPower) {
  HeSrpt alloc(0.7);
  const auto copy = alloc.clone();
  EXPECT_EQ(copy->name(), "hesrpt");
  EXPECT_TRUE(copy->size_aware());
}

}  // namespace
}  // namespace abg::alloc
