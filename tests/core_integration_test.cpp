#include <gtest/gtest.h>

#include "alloc/round_robin.hpp"
#include "core/run.hpp"
#include "dag/profile_job.hpp"
#include "workload/profiles.hpp"

namespace abg::core {
namespace {

TEST(AbgScheduler, DefaultConfiguration) {
  const SchedulerSpec abg = abg_spec();
  EXPECT_EQ(abg.name, "ABG");
  EXPECT_EQ(abg.execution->name(), "b-greedy");
  EXPECT_EQ(abg.request->name(), "a-control");
  const auto* control =
      dynamic_cast<const sched::AControlRequest*>(abg.request.get());
  ASSERT_NE(control, nullptr);
  EXPECT_DOUBLE_EQ(control->config().convergence_rate, 0.2);
}

TEST(AGreedyScheduler, DefaultConfiguration) {
  const SchedulerSpec ag = a_greedy_spec();
  EXPECT_EQ(ag.name, "A-Greedy");
  EXPECT_EQ(ag.execution->name(), "greedy");
  EXPECT_EQ(ag.request->name(), "a-greedy");
  const auto* mimd =
      dynamic_cast<const sched::AGreedyRequest*>(ag.request.get());
  ASSERT_NE(mimd, nullptr);
  EXPECT_DOUBLE_EQ(mimd->config().utilization, 0.8);
  EXPECT_DOUBLE_EQ(mimd->config().responsiveness, 2.0);
}

TEST(SchedulerSpec, FactoriesProduceCompleteSpecs) {
  for (const SchedulerSpec& spec :
       {abg_spec(), a_greedy_spec(), static_spec(8)}) {
    EXPECT_FALSE(spec.name.empty());
    EXPECT_NE(spec.execution, nullptr);
    EXPECT_NE(spec.request, nullptr);
  }
}

TEST(SchedulerSpec, CopyIsDeep) {
  const SchedulerSpec spec = abg_spec();
  const SchedulerSpec copy = spec.copy();
  EXPECT_EQ(copy.name, spec.name);
  EXPECT_NE(copy.execution.get(), spec.execution.get());
  EXPECT_NE(copy.request.get(), spec.request.get());
}

TEST(SchedulerSpec, CopyOfIncompleteSpecThrows) {
  SchedulerSpec broken;
  EXPECT_THROW(broken.copy(), std::logic_error);
}

TEST(RunSingle, DefaultsToUnconstrainedAllocator) {
  auto job = dag::ProfileJob::from_runs(workload::constant_profile(8, 200));
  const sim::JobTrace trace = run_single(
      abg_spec(), job,
      sim::SingleJobConfig{.processors = 64, .quantum_length = 50});
  ASSERT_TRUE(trace.finished());
  // Once converged, requests are granted in full.
  const auto& last = trace.quanta[trace.quanta.size() - 2];
  EXPECT_EQ(last.allotment, last.request);
}

TEST(RunSingle, SpecStaysReusable) {
  const SchedulerSpec spec = abg_spec();
  auto job1 = dag::ProfileJob::from_runs(workload::constant_profile(4, 100));
  auto job2 = dag::ProfileJob::from_runs(workload::constant_profile(4, 100));
  const auto t1 = run_single(
      spec, job1, sim::SingleJobConfig{.processors = 16, .quantum_length = 20});
  const auto t2 = run_single(
      spec, job2, sim::SingleJobConfig{.processors = 16, .quantum_length = 20});
  EXPECT_EQ(t1.quanta.size(), t2.quanta.size());
  EXPECT_EQ(t1.completion_step, t2.completion_step);
}

TEST(RunSingle, RejectsIncompleteSpec) {
  SchedulerSpec broken;
  dag::ProfileJob job({1});
  EXPECT_THROW(run_single(broken, job, sim::SingleJobConfig{}),
               std::invalid_argument);
}

TEST(RunSet, DefaultsToEquiPartition) {
  std::vector<sim::JobSubmission> subs;
  for (int j = 0; j < 3; ++j) {
    sim::JobSubmission s;
    s.job = std::make_unique<dag::ProfileJob>(
        dag::ProfileJob::from_runs(workload::constant_profile(16, 100)));
    subs.push_back(std::move(s));
  }
  const sim::SimResult result =
      run_set(abg_spec(), std::move(subs),
              sim::SimConfig{.processors = 12, .quantum_length = 25});
  ASSERT_EQ(result.jobs.size(), 3u);
  for (const auto& t : result.jobs) {
    EXPECT_TRUE(t.finished());
    // 3 competing jobs on 12 processors: nobody can hold more than the
    // fair share once all are converged and greedy.
    for (const auto& q : t.quanta) {
      EXPECT_LE(q.allotment, 12);
    }
  }
}

TEST(RunSet, ExplicitAllocatorIsUsed) {
  std::vector<sim::JobSubmission> subs;
  sim::JobSubmission s;
  s.job = std::make_unique<dag::ProfileJob>(
      dag::ProfileJob::from_runs(workload::constant_profile(4, 60)));
  subs.push_back(std::move(s));
  alloc::RoundRobin rr;
  const sim::SimResult result =
      run_set(abg_spec(), std::move(subs),
              sim::SimConfig{.processors = 8, .quantum_length = 20}, &rr);
  EXPECT_TRUE(result.jobs[0].finished());
}

TEST(RunSet, StaticSpecBracketsAdaptive) {
  // A static scheduler pinned at the job's max parallelism finishes a
  // constant-parallelism job at least as fast as ABG (it never spends
  // quanta converging), at the cost of waste on the serial prefix.
  auto make_subs = [] {
    std::vector<sim::JobSubmission> subs;
    sim::JobSubmission s;
    s.job = std::make_unique<dag::ProfileJob>(
        dag::ProfileJob::from_runs(workload::constant_profile(10, 400)));
    subs.push_back(std::move(s));
    return subs;
  };
  const sim::SimConfig config{.processors = 32, .quantum_length = 50};
  const auto adaptive = run_set(abg_spec(), make_subs(), config);
  const auto pinned = run_set(static_spec(10), make_subs(), config);
  EXPECT_LE(pinned.makespan, adaptive.makespan);
}

}  // namespace
}  // namespace abg::core
