#include "sim/quantum_engine.hpp"

#include <gtest/gtest.h>

#include "alloc/availability_profile.hpp"
#include "alloc/unconstrained.hpp"
#include "dag/profile_job.hpp"
#include "sched/a_control.hpp"
#include "sched/execution_policy.hpp"
#include "sched/request_policy.hpp"
#include "workload/profiles.hpp"

namespace abg::sim {
namespace {

SingleJobConfig small_config() {
  return SingleJobConfig{.processors = 16, .quantum_length = 10};
}

TEST(QuantumEngine, RunsJobToCompletion) {
  auto job = dag::ProfileJob::from_runs(workload::constant_profile(4, 100));
  sched::BGreedyExecution exec;
  sched::AControlRequest request;
  alloc::Unconstrained allocator;
  const JobTrace trace =
      run_single_job(job, exec, request, allocator, small_config());
  EXPECT_TRUE(trace.finished());
  EXPECT_TRUE(job.finished());
  EXPECT_EQ(trace.work, 400);
  EXPECT_EQ(trace.critical_path, 100);
}

TEST(QuantumEngine, FirstQuantumRequestsOne) {
  auto job = dag::ProfileJob::from_runs(workload::constant_profile(4, 100));
  sched::BGreedyExecution exec;
  sched::AControlRequest request;
  alloc::Unconstrained allocator;
  const JobTrace trace =
      run_single_job(job, exec, request, allocator, small_config());
  ASSERT_FALSE(trace.quanta.empty());
  EXPECT_EQ(trace.quanta.front().request, 1);
  EXPECT_EQ(trace.quanta.front().allotment, 1);
  EXPECT_EQ(trace.quanta.front().index, 1);
}

TEST(QuantumEngine, QuantumIndicesAreSequential) {
  auto job = dag::ProfileJob::from_runs(workload::constant_profile(4, 100));
  sched::BGreedyExecution exec;
  sched::AControlRequest request;
  alloc::Unconstrained allocator;
  const JobTrace trace =
      run_single_job(job, exec, request, allocator, small_config());
  for (std::size_t i = 0; i < trace.quanta.size(); ++i) {
    EXPECT_EQ(trace.quanta[i].index, static_cast<std::int64_t>(i + 1));
  }
}

TEST(QuantumEngine, CompletionStepIsExact) {
  // 25 serial tasks with L = 10: finishes mid-third-quantum at step 25.
  auto job = dag::ProfileJob::from_runs(workload::constant_profile(1, 25));
  sched::BGreedyExecution exec;
  sched::AControlRequest request;
  alloc::Unconstrained allocator;
  const JobTrace trace =
      run_single_job(job, exec, request, allocator, small_config());
  EXPECT_EQ(trace.completion_step, 25);
  EXPECT_EQ(trace.response_time(), 25);
  EXPECT_EQ(trace.quanta.size(), 3u);
  EXPECT_TRUE(trace.quanta.back().finished);
  EXPECT_EQ(trace.quanta.back().steps_used, 5);
}

TEST(QuantumEngine, WorkConservation) {
  auto job = dag::ProfileJob::from_runs(
      workload::square_wave_profile(1, 20, 8, 20, 3));
  sched::BGreedyExecution exec;
  sched::AControlRequest request;
  alloc::Unconstrained allocator;
  const JobTrace trace =
      run_single_job(job, exec, request, allocator, small_config());
  dag::TaskCount total = 0;
  double cpl = 0.0;
  for (const auto& q : trace.quanta) {
    total += q.work;
    cpl += q.cpl;
  }
  EXPECT_EQ(total, trace.work);
  EXPECT_NEAR(cpl, static_cast<double>(trace.critical_path), 1e-9);
}

TEST(QuantumEngine, AllotmentNeverExceedsRequest) {
  auto job = dag::ProfileJob::from_runs(
      workload::square_wave_profile(1, 30, 12, 30, 2));
  sched::BGreedyExecution exec;
  sched::AControlRequest request;
  alloc::Unconstrained allocator;
  const JobTrace trace =
      run_single_job(job, exec, request, allocator, small_config());
  for (const auto& q : trace.quanta) {
    EXPECT_LE(q.allotment, q.request);
    EXPECT_LE(q.allotment, 16);
  }
}

TEST(QuantumEngine, AvailabilityRecordedFromProfile) {
  auto job = dag::ProfileJob::from_runs(workload::constant_profile(4, 60));
  sched::BGreedyExecution exec;
  sched::AControlRequest request;
  alloc::AvailabilityProfile allocator({1, 2, 3, 4, 5, 6, 7, 8});
  const JobTrace trace = run_single_job(job, exec, request, allocator,
                                        small_config());
  for (std::size_t i = 0; i < trace.quanta.size(); ++i) {
    EXPECT_EQ(trace.quanta[i].available,
              allocator.availability_at(i + 1));
  }
}

TEST(QuantumEngine, ZeroWorkJobFinishesImmediately) {
  dag::ProfileJob job({});
  sched::BGreedyExecution exec;
  sched::AControlRequest request;
  alloc::Unconstrained allocator;
  const JobTrace trace =
      run_single_job(job, exec, request, allocator, small_config());
  EXPECT_TRUE(trace.finished());
  EXPECT_EQ(trace.completion_step, 0);
  EXPECT_TRUE(trace.quanta.empty());
}

TEST(QuantumEngine, ThrowsWhenStarvedForever) {
  auto job = dag::ProfileJob::from_runs(workload::constant_profile(2, 50));
  sched::BGreedyExecution exec;
  sched::AControlRequest request;
  alloc::AvailabilityProfile allocator({0});  // never grants anything
  SingleJobConfig config = small_config();
  config.max_steps = 500;
  EXPECT_THROW(run_single_job(job, exec, request, allocator, config),
               std::runtime_error);
}

TEST(QuantumEngine, RejectsBadConfig) {
  dag::ProfileJob job({1});
  sched::BGreedyExecution exec;
  sched::AControlRequest request;
  alloc::Unconstrained allocator;
  EXPECT_THROW(
      run_single_job(job, exec, request, allocator,
                     SingleJobConfig{.processors = 0, .quantum_length = 10}),
      std::invalid_argument);
  EXPECT_THROW(
      run_single_job(job, exec, request, allocator,
                     SingleJobConfig{.processors = 4, .quantum_length = 0}),
      std::invalid_argument);
}

TEST(QuantumEngine, RequestPolicyIsResetBeforeRun) {
  // Run twice with the same request policy object: both runs must start
  // from d(1) = 1.
  sched::BGreedyExecution exec;
  sched::AControlRequest request;
  alloc::Unconstrained allocator;
  auto job1 = dag::ProfileJob::from_runs(workload::constant_profile(8, 100));
  const JobTrace t1 =
      run_single_job(job1, exec, request, allocator, small_config());
  auto job2 = dag::ProfileJob::from_runs(workload::constant_profile(8, 100));
  const JobTrace t2 =
      run_single_job(job2, exec, request, allocator, small_config());
  EXPECT_EQ(t1.quanta.front().request, 1);
  EXPECT_EQ(t2.quanta.front().request, 1);
  EXPECT_EQ(t1.quanta.size(), t2.quanta.size());
}

TEST(QuantumEngine, AdaptiveRequestTracksParallelismSwitch) {
  // Parallelism steps from 2 to 12; the A-Control request follows it.
  auto job = dag::ProfileJob::from_runs(
      workload::step_profile(2, 200, 12, 400));
  sched::BGreedyExecution exec;
  sched::AControlRequest request(sched::AControlConfig{0.0});  // one-step
  alloc::Unconstrained allocator;
  const JobTrace trace = run_single_job(job, exec, request, allocator,
                                        SingleJobConfig{.processors = 32,
                                                        .quantum_length = 50});
  ASSERT_TRUE(trace.finished());
  // Early full quanta measure A = 2; after the switch they measure 12; the
  // requests one quantum later match.
  const auto& quanta = trace.quanta;
  bool saw_low = false;
  bool saw_high = false;
  for (std::size_t i = 1; i < quanta.size(); ++i) {
    if (quanta[i - 1].full && quanta[i - 1].average_parallelism() > 0) {
      const double measured = quanta[i - 1].average_parallelism();
      EXPECT_EQ(quanta[i].request,
                static_cast<int>(std::llround(measured)));
      saw_low = saw_low || measured < 3.0;
      saw_high = saw_high || measured > 10.0;
    }
  }
  EXPECT_TRUE(saw_low);
  EXPECT_TRUE(saw_high);
}

}  // namespace
}  // namespace abg::sim
