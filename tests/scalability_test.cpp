#include "metrics/scalability.hpp"

#include <gtest/gtest.h>

#include "dag/builders.hpp"
#include "dag/dag_job.hpp"
#include "dag/profile_job.hpp"
#include "workload/profiles.hpp"

namespace abg::metrics {
namespace {

TEST(Scalability, Validation) {
  dag::ProfileJob job({2, 2});
  EXPECT_THROW(scalability_curve(job, {}), std::invalid_argument);
  EXPECT_THROW(scalability_curve(job, {0}), std::invalid_argument);
}

TEST(Scalability, SerialTimeEqualsWork) {
  auto job = dag::ProfileJob::from_runs(workload::constant_profile(4, 50));
  const auto curve = scalability_curve(job, {1});
  ASSERT_EQ(curve.size(), 1u);
  EXPECT_EQ(curve[0].time, job.total_work());
  EXPECT_DOUBLE_EQ(curve[0].speedup, 1.0);
  EXPECT_DOUBLE_EQ(curve[0].efficiency, 1.0);
}

TEST(Scalability, PerfectScalingUpToWidth) {
  // Constant width 8: linear speedup at p = 1, 2, 4, 8; flat beyond.
  auto job = dag::ProfileJob::from_runs(workload::constant_profile(8, 64));
  const auto curve = scalability_curve(job, {1, 2, 4, 8, 16});
  EXPECT_EQ(curve[0].time, 512);
  EXPECT_EQ(curve[1].time, 256);
  EXPECT_EQ(curve[2].time, 128);
  EXPECT_EQ(curve[3].time, 64);
  EXPECT_EQ(curve[4].time, 64);  // capped by the profile width
  EXPECT_DOUBLE_EQ(curve[3].speedup, 8.0);
  EXPECT_DOUBLE_EQ(curve[4].efficiency, 0.5);
}

TEST(Scalability, TimeBoundedByWorkAndSpanLaws) {
  util::Rng rng(6);
  dag::DagJob job{dag::builders::random_layered(rng, 20, 10, 0.3)};
  const auto curve = scalability_curve(job, {1, 3, 7, 16});
  for (const auto& point : curve) {
    // Work law: T(p) >= T1/p;  span law: T(p) >= T_inf.
    EXPECT_GE(point.time,
              (job.total_work() + point.processors - 1) /
                  point.processors);
    EXPECT_GE(point.time, job.critical_path());
    // Greedy bound: T(p) <= T1/p + T_inf.
    EXPECT_LE(static_cast<double>(point.time),
              static_cast<double>(job.total_work()) / point.processors +
                  static_cast<double>(job.critical_path()) + 1e-9);
    EXPECT_LE(point.efficiency, 1.0 + 1e-12);
  }
  // Monotone: more processors never slow a greedy schedule down here.
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i].time, curve[i - 1].time);
  }
}

TEST(Scalability, JobLeftUntouched) {
  dag::ProfileJob job({4, 4});
  scalability_curve(job, {2});
  EXPECT_EQ(job.completed_work(), 0);
  EXPECT_FALSE(job.finished());
}

TEST(PowerOfTwoCounts, Shape) {
  EXPECT_EQ(power_of_two_counts(1), (std::vector<int>{1}));
  EXPECT_EQ(power_of_two_counts(8), (std::vector<int>{1, 2, 4, 8}));
  EXPECT_EQ(power_of_two_counts(10), (std::vector<int>{1, 2, 4, 8}));
  EXPECT_THROW(power_of_two_counts(0), std::invalid_argument);
}

}  // namespace
}  // namespace abg::metrics
