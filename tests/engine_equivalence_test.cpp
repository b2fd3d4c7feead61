// The unified-core equivalence contract: a job set of one pushed through
// simulate_job_set must reproduce run_single_job quantum-for-quantum —
// same boundaries, requests, allotments, work, and completion — because
// both are now thin wrappers over the same sim::QuantumLoop.  The
// suite exercises the full feature matrix: plain runs, reallocation
// overhead, adaptive quantum lengths, and fault plans.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "alloc/equipartition.hpp"
#include "dag/profile_job.hpp"
#include "fault/fault_plan.hpp"
#include "sched/a_control.hpp"
#include "sched/execution_policy.hpp"
#include "sched/quantum_length.hpp"
#include "sim/quantum_engine.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workload/profiles.hpp"

namespace abg::sim {
namespace {

/// A profile with several parallelism transitions so the request policy's
/// feedback loop actually moves (constant profiles converge immediately).
std::vector<dag::LevelRun> test_profile() {
  return workload::square_wave_profile(2, 70, 11, 70, 4);
}

/// Requires the two traces to agree on every field of every quantum.
void expect_traces_equal(const JobTrace& single, const JobTrace& set) {
  EXPECT_EQ(single.release_step, set.release_step);
  EXPECT_EQ(single.completion_step, set.completion_step);
  EXPECT_EQ(single.work, set.work);
  EXPECT_EQ(single.critical_path, set.critical_path);
  ASSERT_EQ(single.quanta.size(), set.quanta.size());
  for (std::size_t q = 0; q < single.quanta.size(); ++q) {
    const sched::QuantumStats& a = single.quanta[q];
    const sched::QuantumStats& b = set.quanta[q];
    EXPECT_EQ(a.index, b.index) << "quantum " << q;
    EXPECT_EQ(a.start_step, b.start_step) << "quantum " << q;
    EXPECT_EQ(a.request, b.request) << "quantum " << q;
    EXPECT_EQ(a.allotment, b.allotment) << "quantum " << q;
    EXPECT_EQ(a.available, b.available) << "quantum " << q;
    EXPECT_EQ(a.length, b.length) << "quantum " << q;
    EXPECT_EQ(a.steps_used, b.steps_used) << "quantum " << q;
    EXPECT_EQ(a.work, b.work) << "quantum " << q;
    EXPECT_DOUBLE_EQ(a.cpl, b.cpl) << "quantum " << q;
    EXPECT_EQ(a.finished, b.finished) << "quantum " << q;
    EXPECT_EQ(a.full, b.full) << "quantum " << q;
  }
}

/// Runs the same profile through both entry points and compares traces.
/// `single_config` and `set_config` must describe the same scenario.
void expect_engines_agree(const SingleJobConfig& single_config,
                          const SimConfig& set_config) {
  sched::BGreedyExecution exec;

  auto single_job = dag::ProfileJob::from_runs(test_profile());
  sched::AControlRequest single_request;
  alloc::EquiPartition single_deq;
  const JobTrace single = run_single_job(single_job, exec, single_request,
                                         single_deq, single_config);

  std::vector<JobSubmission> subs;
  subs.push_back(JobSubmission{
      std::make_unique<dag::ProfileJob>(
          dag::ProfileJob::from_runs(test_profile())),
      0,
      {}});
  sched::AControlRequest proto;
  alloc::EquiPartition set_deq;
  const SimResult set =
      simulate_job_set(std::move(subs), exec, proto, set_deq, set_config);

  ASSERT_EQ(set.jobs.size(), 1u);
  expect_traces_equal(single, set.jobs.front());
  EXPECT_EQ(set.makespan, single.completion_step);
}

TEST(EngineEquivalence, SetOfOneMatchesSingleJob) {
  const SingleJobConfig single{.processors = 16, .quantum_length = 30};
  const SimConfig set{.processors = 16, .quantum_length = 30};
  expect_engines_agree(single, set);
}

TEST(EngineEquivalence, WithReallocationCost) {
  SingleJobConfig single{.processors = 16, .quantum_length = 30};
  single.reallocation_cost_per_proc = 2;
  SimConfig set{.processors = 16, .quantum_length = 30};
  set.reallocation_cost_per_proc = 2;
  expect_engines_agree(single, set);
}

TEST(EngineEquivalence, WithCheckpointCrash) {
  fault::FaultPlan plan = fault::periodic_crash_plan(0, 65, 90, 2);
  plan.work_loss = fault::WorkLoss::kCheckpointQuantum;
  SingleJobConfig single{.processors = 16, .quantum_length = 30};
  single.faults = &plan;
  SimConfig set{.processors = 16, .quantum_length = 30};
  set.faults = &plan;
  expect_engines_agree(single, set);
}

TEST(EngineEquivalence, WithAdaptiveQuantumLength) {
  // The set engine's quantum-length hook sees the sole job's stats
  // verbatim when only one job ran the quantum, which is exactly what the
  // single-job engine feeds its policy — so the adaptive schedule of
  // lengths must coincide too.
  sched::AdaptiveQuantumConfig qconfig;
  qconfig.min_length = 20;
  qconfig.max_length = 160;

  sched::BGreedyExecution exec;
  auto single_job = dag::ProfileJob::from_runs(test_profile());
  sched::AControlRequest single_request;
  sched::AdaptiveQuantumLength single_policy(qconfig);
  alloc::EquiPartition single_deq;
  const SingleJobConfig single_config{.processors = 16};
  const JobTrace single =
      run_single_job(single_job, exec, single_request, single_policy,
                     single_deq, single_config);

  std::vector<JobSubmission> subs;
  subs.push_back(JobSubmission{
      std::make_unique<dag::ProfileJob>(
          dag::ProfileJob::from_runs(test_profile())),
      0,
      {}});
  sched::AControlRequest proto;
  sched::AdaptiveQuantumLength set_policy(qconfig);
  alloc::EquiPartition set_deq;
  SimConfig set_config{.processors = 16};
  set_config.quantum_length_policy = &set_policy;
  const SimResult set =
      simulate_job_set(std::move(subs), exec, proto, set_deq, set_config);

  ASSERT_EQ(set.jobs.size(), 1u);
  expect_traces_equal(single, set.jobs.front());
  // The adaptive policy actually grew: more than one distinct length.
  bool grew = false;
  for (const auto& q : single.quanta) {
    grew = grew || q.length != single.quanta.front().length;
  }
  EXPECT_TRUE(grew);
}

}  // namespace
}  // namespace abg::sim
