// Reallocation-overhead modeling in both engines.
#include <gtest/gtest.h>

#include "alloc/equipartition.hpp"
#include "alloc/unconstrained.hpp"
#include "core/run.hpp"
#include "dag/profile_job.hpp"
#include "sim/quantum_engine.hpp"
#include "sim/simulator.hpp"
#include "sim/validate.hpp"
#include "workload/profiles.hpp"

namespace abg::sim {
namespace {

TEST(ReallocationPenalty, Formula) {
  EXPECT_EQ(reallocation_penalty(0, 8, 2, 100), 16);
  EXPECT_EQ(reallocation_penalty(8, 0, 2, 100), 16);
  EXPECT_EQ(reallocation_penalty(8, 8, 2, 100), 0);
  EXPECT_EQ(reallocation_penalty(0, 100, 5, 100), 100);  // capped at L
  EXPECT_EQ(reallocation_penalty(3, 7, 0, 100), 0);      // free
}

TEST(Overhead, ZeroCostIdenticalToBaseline) {
  auto run = [](dag::Steps cost) {
    auto job = dag::ProfileJob::from_runs(
        workload::square_wave_profile(1, 60, 8, 60, 3));
    return core::run_single(
        core::abg_spec(), job,
        SingleJobConfig{.processors = 32,
                        .quantum_length = 30,
                        .reallocation_cost_per_proc = cost});
  };
  const JobTrace base = run(0);
  const JobTrace same = run(0);
  EXPECT_EQ(base.completion_step, same.completion_step);
  EXPECT_EQ(base.total_waste(), same.total_waste());
}

TEST(Overhead, SlowsCompletionAndAddsWaste) {
  auto run = [](dag::Steps cost) {
    auto job = dag::ProfileJob::from_runs(
        workload::square_wave_profile(1, 60, 8, 60, 3));
    return core::run_single(
        core::abg_spec(), job,
        SingleJobConfig{.processors = 32,
                        .quantum_length = 30,
                        .reallocation_cost_per_proc = cost});
  };
  const JobTrace free = run(0);
  const JobTrace costly = run(3);
  EXPECT_GT(costly.completion_step, free.completion_step);
  EXPECT_GT(costly.total_waste(), free.total_waste());
  // Work is conserved regardless of overhead.
  EXPECT_EQ(free.work, costly.work);
}

TEST(Overhead, PenaltyAccountingExact) {
  // Constant-width job: ABG's allotments go 1 (placement penalty cost*1),
  // then jump to 4 (penalty cost*3), then stay (no penalty).
  auto job = dag::ProfileJob::from_runs(workload::constant_profile(4, 400));
  const JobTrace trace = core::run_single(
      core::abg_spec(), job,
      SingleJobConfig{.processors = 32,
                      .quantum_length = 50,
                      .reallocation_cost_per_proc = 2});
  ASSERT_GE(trace.quanta.size(), 4u);
  // Quantum 1: allotment 1, placement penalty 2 steps -> 48 work steps;
  // the job measures A(1) = 4 and the desire moves to 0.2 + 0.8*4 = 3.4.
  EXPECT_EQ(trace.quanta[0].allotment, 1);
  EXPECT_EQ(trace.quanta[0].work, 48);
  EXPECT_FALSE(trace.quanta[0].full);
  // Quantum 2: request round(3.4) = 3: penalty 2*|3-1| = 4, budget 46;
  // 3 procs on width-4 barrier levels take 2 steps per level -> 23 levels
  // = 92 tasks.  Desire moves to 0.2*3.4 + 0.8*4 = 3.88.
  EXPECT_EQ(trace.quanta[1].allotment, 3);
  EXPECT_EQ(trace.quanta[1].work, 92);
  EXPECT_FALSE(trace.quanta[1].full);
  // Quantum 3: request 4: penalty 2, budget 48 -> 48 * 4 = 192 tasks.
  EXPECT_EQ(trace.quanta[2].allotment, 4);
  EXPECT_EQ(trace.quanta[2].work, 192);
  EXPECT_FALSE(trace.quanta[2].full);
  // Quantum 4: allotment unchanged -> no penalty, full quantum, 200 tasks.
  EXPECT_EQ(trace.quanta[3].allotment, 4);
  EXPECT_EQ(trace.quanta[3].work, 200);
  EXPECT_TRUE(trace.quanta[3].full);
}

TEST(Overhead, FullPenaltyQuantumMakesNoProgress) {
  // Cost so large the first quantum is pure migration.
  auto job = dag::ProfileJob::from_runs(workload::constant_profile(2, 40));
  const JobTrace trace = core::run_single(
      core::abg_spec(), job,
      SingleJobConfig{.processors = 8,
                      .quantum_length = 10,
                      .reallocation_cost_per_proc = 100});
  ASSERT_FALSE(trace.quanta.empty());
  EXPECT_EQ(trace.quanta[0].work, 0);
  EXPECT_EQ(trace.quanta[0].steps_used, 10);
  EXPECT_TRUE(trace.finished());  // allotment settles, penalties stop
}

TEST(Overhead, TracesStillValidate) {
  std::vector<JobSubmission> subs;
  for (int j = 0; j < 3; ++j) {
    JobSubmission s;
    s.job = std::make_unique<dag::ProfileJob>(dag::ProfileJob::from_runs(
        workload::square_wave_profile(1, 40, 6, 40, 2)));
    subs.push_back(std::move(s));
  }
  sched::BGreedyExecution exec;
  sched::AControlRequest proto;
  alloc::EquiPartition deq;
  const SimResult result = simulate_job_set(
      std::move(subs), exec, proto, deq,
      SimConfig{.processors = 16,
                .quantum_length = 25,
                .reallocation_cost_per_proc = 2});
  const auto issues = validate_result(result, 16);
  EXPECT_TRUE(issues.empty()) << (issues.empty() ? "" : issues.front());
}

TEST(Overhead, AGreedyPaysMoreThanAbgAtSteadyState) {
  // Constant parallelism: ABG settles (no further reallocation); A-Greedy
  // ping-pongs and pays migration every quantum.
  const auto make_job = [] {
    return workload::constant_parallelism_chains(10, 3000);
  };
  const SingleJobConfig config{.processors = 64,
                               .quantum_length = 100,
                               .reallocation_cost_per_proc = 3};
  const auto abg_job = make_job();
  const JobTrace abg_trace =
      core::run_single(core::abg_spec(), *abg_job, config);
  const auto ag_job = make_job();
  const JobTrace ag_trace =
      core::run_single(core::a_greedy_spec(), *ag_job, config);
  EXPECT_LT(abg_trace.response_time(), ag_trace.response_time());
  EXPECT_LT(abg_trace.total_waste(), ag_trace.total_waste());
}

}  // namespace
}  // namespace abg::sim
