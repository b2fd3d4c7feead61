#include "metrics/parallelism_stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/stats.hpp"

namespace abg::metrics {
namespace {

sched::QuantumStats quantum(double parallelism, bool full = true) {
  sched::QuantumStats q;
  q.length = 100;
  q.steps_used = 100;
  q.cpl = 10.0;
  q.work = static_cast<dag::TaskCount>(std::llround(parallelism * 10.0));
  q.allotment = 1;
  q.full = full;
  return q;
}

sim::JobTrace trace_of(std::initializer_list<double> parallelism) {
  sim::JobTrace t;
  for (const double a : parallelism) {
    t.quanta.push_back(quantum(a));
  }
  return t;
}

TEST(TransitionFactorSeries, ConstantSeriesSeededByInitial) {
  // A(0) = 1 and A(q) = 4: the first transition contributes factor 4.
  EXPECT_DOUBLE_EQ(transition_factor_of_series({4.0, 4.0, 4.0}), 4.0);
}

TEST(TransitionFactorSeries, WithoutSeedConstantIsOne) {
  EXPECT_DOUBLE_EQ(transition_factor_of_series({4.0, 4.0, 4.0}, false), 1.0);
}

TEST(TransitionFactorSeries, MaxOfUpAndDownRatios) {
  // 2 -> 6 is x3; 6 -> 1 is /6: factor 6.
  EXPECT_DOUBLE_EQ(transition_factor_of_series({2.0, 6.0, 1.0}, false), 6.0);
}

TEST(TransitionFactorSeries, EmptySeries) {
  EXPECT_DOUBLE_EQ(transition_factor_of_series({}, true), 1.0);
  EXPECT_DOUBLE_EQ(transition_factor_of_series({}, false), 1.0);
}

TEST(TransitionFactorSeries, RejectsNonPositive) {
  EXPECT_THROW(transition_factor_of_series({1.0, 0.0}),
               std::invalid_argument);
}

TEST(EmpiricalTransitionFactor, UsesOnlyFullQuanta) {
  sim::JobTrace t;
  t.quanta.push_back(quantum(2.0));
  t.quanta.push_back(quantum(100.0, /*full=*/false));  // ignored
  t.quanta.push_back(quantum(4.0));
  // Ratios considered: 1->2 (A(0)=1) and 2->4.
  EXPECT_DOUBLE_EQ(empirical_transition_factor(t), 2.0);
}

TEST(EmpiricalTransitionFactor, EmptyTraceIsOne) {
  sim::JobTrace t;
  EXPECT_DOUBLE_EQ(empirical_transition_factor(t), 1.0);
}

TEST(EmpiricalTransitionFactor, SquareWaveMeasuresSwing) {
  const sim::JobTrace t = trace_of({1.0, 8.0, 1.0, 8.0});
  EXPECT_DOUBLE_EQ(empirical_transition_factor(t), 8.0);
}

TEST(ParallelismVariance, ConstantIsZero) {
  EXPECT_DOUBLE_EQ(parallelism_variance(trace_of({5.0, 5.0, 5.0})), 0.0);
}

TEST(ParallelismVariance, MatchesRunningStats) {
  const sim::JobTrace t = trace_of({2.0, 4.0, 6.0, 8.0});
  util::RunningStats expected;
  for (const double a : {2.0, 4.0, 6.0, 8.0}) {
    expected.add(a);
  }
  EXPECT_NEAR(parallelism_variance(t), expected.variance(), 1e-12);
}

TEST(ParallelismVariance, FewerThanTwoFullQuanta) {
  EXPECT_DOUBLE_EQ(parallelism_variance(trace_of({7.0})), 0.0);
}

}  // namespace
}  // namespace abg::metrics
