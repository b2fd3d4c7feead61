#include "sched/quantum_length.hpp"

#include <gtest/gtest.h>

#include "alloc/unconstrained.hpp"
#include "core/run.hpp"
#include "sim/quantum_engine.hpp"
#include "workload/fork_join.hpp"
#include "workload/profiles.hpp"

namespace abg::sched {
namespace {

QuantumStats stats_with_parallelism(double parallelism) {
  QuantumStats q;
  q.length = 100;
  q.cpl = 10.0;
  q.work = static_cast<dag::TaskCount>(parallelism * 10.0);
  q.full = true;
  return q;
}

TEST(FixedQuantumLength, ConstantAndValidated) {
  EXPECT_THROW(FixedQuantumLength(0), std::invalid_argument);
  FixedQuantumLength fixed(500);
  EXPECT_EQ(fixed.initial_length(), 500);
  EXPECT_EQ(fixed.next_length(stats_with_parallelism(3.0)), 500);
  EXPECT_EQ(fixed.clone()->initial_length(), 500);
  EXPECT_EQ(fixed.name(), "fixed");
}

TEST(AdaptiveQuantumLength, Validation) {
  EXPECT_THROW(AdaptiveQuantumLength(AdaptiveQuantumConfig{0, 100, 0.2, 2}),
               std::invalid_argument);
  EXPECT_THROW(AdaptiveQuantumLength(AdaptiveQuantumConfig{100, 50, 0.2, 2}),
               std::invalid_argument);
  EXPECT_THROW(AdaptiveQuantumLength(AdaptiveQuantumConfig{10, 100, 0.0, 2}),
               std::invalid_argument);
  EXPECT_THROW(AdaptiveQuantumLength(AdaptiveQuantumConfig{10, 100, 0.2, 0}),
               std::invalid_argument);
}

TEST(AdaptiveQuantumLength, GrowsOnStableParallelism) {
  AdaptiveQuantumLength policy(
      AdaptiveQuantumConfig{100, 1600, 0.2, 2});
  EXPECT_EQ(policy.initial_length(), 100);
  // First measurement establishes the baseline; not yet "stable".
  EXPECT_EQ(policy.next_length(stats_with_parallelism(10.0)), 100);
  EXPECT_EQ(policy.next_length(stats_with_parallelism(10.0)), 100);
  // Second consecutive stable quantum: double.
  EXPECT_EQ(policy.next_length(stats_with_parallelism(10.0)), 200);
  EXPECT_EQ(policy.next_length(stats_with_parallelism(10.5)), 200);
  EXPECT_EQ(policy.next_length(stats_with_parallelism(10.5)), 400);
}

TEST(AdaptiveQuantumLength, CapsAtMax) {
  AdaptiveQuantumLength policy(AdaptiveQuantumConfig{100, 300, 0.2, 1});
  policy.next_length(stats_with_parallelism(10.0));
  EXPECT_EQ(policy.next_length(stats_with_parallelism(10.0)), 200);
  EXPECT_EQ(policy.next_length(stats_with_parallelism(10.0)), 300);
  EXPECT_EQ(policy.next_length(stats_with_parallelism(10.0)), 300);
}

TEST(AdaptiveQuantumLength, ResetsOnParallelismJump) {
  AdaptiveQuantumLength policy(AdaptiveQuantumConfig{100, 1600, 0.2, 1});
  policy.next_length(stats_with_parallelism(10.0));
  policy.next_length(stats_with_parallelism(10.0));   // -> 200
  policy.next_length(stats_with_parallelism(10.0));   // -> 400
  // Parallelism doubles: back to the floor.
  EXPECT_EQ(policy.next_length(stats_with_parallelism(20.0)), 100);
}

TEST(AdaptiveQuantumLength, HoldsWithoutMeasurement) {
  AdaptiveQuantumLength policy(AdaptiveQuantumConfig{100, 1600, 0.2, 1});
  policy.next_length(stats_with_parallelism(10.0));
  policy.next_length(stats_with_parallelism(10.0));  // -> 200
  QuantumStats empty;
  EXPECT_EQ(policy.next_length(empty), 200);
}

TEST(AdaptiveQuantumLength, ResetRestoresFloor) {
  AdaptiveQuantumLength policy(AdaptiveQuantumConfig{100, 1600, 0.2, 1});
  policy.next_length(stats_with_parallelism(10.0));
  policy.next_length(stats_with_parallelism(10.0));
  policy.reset();
  EXPECT_EQ(policy.initial_length(), 100);
  EXPECT_EQ(policy.next_length(stats_with_parallelism(10.0)), 100);
}

TEST(DynamicQuantumEngine, FixedOverloadMatchesBase) {
  // The two run_single_job overloads agree when the policy is fixed.
  const sim::SingleJobConfig config{.processors = 32, .quantum_length = 50};
  auto job1 = dag::ProfileJob::from_runs(workload::constant_profile(8, 400));
  BGreedyExecution exec;
  AControlRequest req1;
  alloc::Unconstrained alloc1;
  const sim::JobTrace base =
      sim::run_single_job(job1, exec, req1, alloc1, config);

  auto job2 = dag::ProfileJob::from_runs(workload::constant_profile(8, 400));
  AControlRequest req2;
  FixedQuantumLength fixed(50);
  alloc::Unconstrained alloc2;
  const sim::JobTrace dynamic =
      sim::run_single_job(job2, exec, req2, fixed, alloc2, config);

  ASSERT_EQ(base.quanta.size(), dynamic.quanta.size());
  EXPECT_EQ(base.completion_step, dynamic.completion_step);
  for (std::size_t i = 0; i < base.quanta.size(); ++i) {
    EXPECT_EQ(base.quanta[i].allotment, dynamic.quanta[i].allotment);
    EXPECT_EQ(base.quanta[i].length, dynamic.quanta[i].length);
  }
}

TEST(DynamicQuantumEngine, AdaptiveLengthensOnStableJob) {
  // A long constant-parallelism job: quanta should grow to the cap.
  auto job = dag::ProfileJob::from_runs(workload::constant_profile(8, 20000));
  BGreedyExecution exec;
  AControlRequest request;
  AdaptiveQuantumLength adaptive(AdaptiveQuantumConfig{100, 1600, 0.2, 2});
  alloc::Unconstrained allocator;
  const sim::JobTrace trace = sim::run_single_job(
      job, exec, request, adaptive, allocator,
      sim::SingleJobConfig{.processors = 32, .quantum_length = 100});
  ASSERT_TRUE(trace.finished());
  dag::Steps longest = 0;
  for (const auto& q : trace.quanta) {
    longest = std::max(longest, q.length);
  }
  EXPECT_EQ(longest, 1600);
  // Fewer quanta than the fixed-length run would need.
  EXPECT_LT(trace.quanta.size(), 20000u / 100u);
}

TEST(DynamicQuantumEngine, CompletionStepStillExact) {
  auto job = dag::ProfileJob::from_runs(workload::constant_profile(1, 777));
  BGreedyExecution exec;
  AControlRequest request;
  AdaptiveQuantumLength adaptive(AdaptiveQuantumConfig{50, 400, 0.2, 1});
  alloc::Unconstrained allocator;
  const sim::JobTrace trace = sim::run_single_job(
      job, exec, request, adaptive, allocator,
      sim::SingleJobConfig{.processors = 8, .quantum_length = 50});
  EXPECT_EQ(trace.completion_step, 777);
}

}  // namespace
}  // namespace abg::sched
