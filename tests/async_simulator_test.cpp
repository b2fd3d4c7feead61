#include "sim/async_simulator.hpp"

#include <gtest/gtest.h>

#include "alloc/equipartition.hpp"
#include "core/run.hpp"
#include "dag/profile_job.hpp"
#include "fault/fault_plan.hpp"
#include "fault/resilience.hpp"
#include "sim/validate.hpp"
#include "workload/fork_join.hpp"
#include "workload/job_set.hpp"
#include "workload/profiles.hpp"

namespace abg::sim {
namespace {

JobSubmission submit(std::vector<dag::LevelRun> runs,
                     dag::Steps release = 0) {
  JobSubmission s;
  s.job = std::make_unique<dag::ProfileJob>(
      dag::ProfileJob::from_runs(std::move(runs)));
  s.release_step = release;
  return s;
}

TEST(AsyncSimulator, Validation) {
  sched::BGreedyExecution exec;
  sched::AControlRequest proto;
  {
    std::vector<JobSubmission> subs;
    subs.push_back(JobSubmission{});
    EXPECT_THROW(simulate_job_set_async(std::move(subs), exec, proto,
                                        SimConfig{}),
                 std::invalid_argument);
  }
  {
    std::vector<JobSubmission> subs;
    subs.push_back(submit({{1, 1}}));
    SimConfig config;
    config.processors = 0;
    EXPECT_THROW(
        simulate_job_set_async(std::move(subs), exec, proto, config),
        std::invalid_argument);
  }
}

TEST(AsyncSimulator, ReallocationCostChargesMigrationDebt) {
  // Reallocation overhead is now supported by the asynchronous engine:
  // repartitions charge a migration debt that stalls the job, so a costed
  // run can only be slower than the free one, never cheaper.
  auto subs_for = [] {
    std::vector<JobSubmission> subs;
    subs.push_back(submit(workload::square_wave_profile(2, 40, 12, 40, 4)));
    subs.push_back(submit(workload::square_wave_profile(12, 40, 2, 40, 4),
                          23));
    return subs;
  };
  sched::BGreedyExecution exec;
  sched::AControlRequest proto;
  SimConfig config{.processors = 16, .quantum_length = 25};
  const SimResult free_run =
      simulate_job_set_async(subs_for(), exec, proto, config);
  config.reallocation_cost_per_proc = 3;
  const SimResult costed =
      simulate_job_set_async(subs_for(), exec, proto, config);
  for (const JobTrace& trace : costed.jobs) {
    EXPECT_TRUE(trace.finished());
  }
  EXPECT_GE(costed.makespan, free_run.makespan);
  const auto issues = validate_result(costed, 16);
  EXPECT_TRUE(issues.empty()) << (issues.empty() ? "" : issues.front());
}

TEST(AsyncSimulator, FaultedRunWithReallocationCostBalances) {
  // Faults and reallocation overhead compose in the asynchronous engine:
  // the crashed job restarts, every job finishes, and the lost-work
  // accounting identity (allotted = work + lost + waste) still holds.
  auto subs_for = [] {
    std::vector<JobSubmission> subs;
    for (int j = 0; j < 3; ++j) {
      subs.push_back(submit(workload::constant_profile(6, 120)));
    }
    return subs;
  };
  sched::BGreedyExecution exec;
  sched::AControlRequest proto;
  SimConfig config{.processors = 12, .quantum_length = 20};
  config.reallocation_cost_per_proc = 2;
  const SimResult reference =
      simulate_job_set_async(subs_for(), exec, proto, config);

  fault::FaultPlan plan = fault::periodic_crash_plan(0, 45, 60, 2);
  plan.work_loss = fault::WorkLoss::kCheckpointQuantum;
  config.faults = &plan;
  const SimResult faulty =
      simulate_job_set_async(subs_for(), exec, proto, config);
  for (const JobTrace& trace : faulty.jobs) {
    EXPECT_TRUE(trace.finished());
  }
  EXPECT_GE(faulty.makespan, reference.makespan);
  const fault::ResilienceReport report =
      fault::analyze_resilience(faulty, reference);
  EXPECT_GE(report.crash_events, 1);
  EXPECT_TRUE(report.accounting_balances())
      << "allotted " << report.allotted_cycles << " != work "
      << report.work_done << " + lost " << report.lost_work << " + waste "
      << report.waste;
  const auto issues = validate_result(faulty, 12);
  EXPECT_TRUE(issues.empty()) << (issues.empty() ? "" : issues.front());
}

TEST(AsyncSimulator, SingleJobMatchesSynchronousEngine) {
  // With one job the boundaries coincide with the synchronous engine's, so
  // completion time and per-quantum requests must agree exactly.
  auto subs_for = [] {
    std::vector<JobSubmission> subs;
    subs.push_back(submit(workload::square_wave_profile(1, 60, 8, 60, 3)));
    return subs;
  };
  sched::BGreedyExecution exec;
  sched::AControlRequest proto;
  const SimConfig config{.processors = 16, .quantum_length = 25};
  alloc::EquiPartition deq;
  const SimResult sync =
      simulate_job_set(subs_for(), exec, proto, deq, config);
  const SimResult async =
      simulate_job_set_async(subs_for(), exec, proto, config);
  EXPECT_EQ(sync.makespan, async.makespan);
  ASSERT_EQ(sync.jobs[0].quanta.size(), async.jobs[0].quanta.size());
  for (std::size_t q = 0; q < sync.jobs[0].quanta.size(); ++q) {
    EXPECT_EQ(sync.jobs[0].quanta[q].request,
              async.jobs[0].quanta[q].request)
        << "quantum " << q;
    EXPECT_EQ(sync.jobs[0].quanta[q].work, async.jobs[0].quanta[q].work);
  }
}

TEST(AsyncSimulator, StaggeredBoundariesInterleave) {
  // Jobs admitted at off-quantum offsets keep their own boundaries: the
  // second job's quanta start at its admission step, not at a global
  // multiple of L.
  std::vector<JobSubmission> subs;
  subs.push_back(submit(workload::constant_profile(4, 300), 0));
  subs.push_back(submit(workload::constant_profile(4, 300), 37));
  sched::BGreedyExecution exec;
  sched::AControlRequest proto;
  const SimConfig config{.processors = 16, .quantum_length = 50};
  const SimResult result =
      simulate_job_set_async(std::move(subs), exec, proto, config);
  ASSERT_TRUE(result.jobs[1].finished());
  EXPECT_EQ(result.jobs[1].quanta.front().start_step, 37);
  EXPECT_EQ(result.jobs[1].quanta[1].start_step, 87);
  // The synchronous engine would have delayed admission to step 50.
  EXPECT_EQ(result.jobs[1].response_time(),
            result.jobs[1].completion_step - 37);
}

TEST(AsyncSimulator, ResultsValidate) {
  std::vector<JobSubmission> subs;
  util::Rng rng(8);
  for (int j = 0; j < 4; ++j) {
    util::Rng job_rng = rng.split();
    JobSubmission s;
    s.job = std::make_unique<dag::ProfileJob>(
        workload::random_walk_profile(job_rng, 200, 12, 2.0));
    s.release_step = rng.uniform_int(0, 60);
    subs.push_back(std::move(s));
  }
  sched::BGreedyExecution exec;
  sched::AControlRequest proto;
  const SimConfig config{.processors = 12, .quantum_length = 30};
  const SimResult result =
      simulate_job_set_async(std::move(subs), exec, proto, config);
  const auto issues = validate_result(result, 12);
  EXPECT_TRUE(issues.empty()) << (issues.empty() ? "" : issues.front());
  for (const auto& t : result.jobs) {
    EXPECT_TRUE(t.finished());
    EXPECT_GE(t.response_time(), t.critical_path);
  }
}

TEST(AsyncSimulator, ComparableToSynchronousOnJobSets) {
  // The two boundary models should produce similar global performance on
  // the paper's workload — asynchrony is a modeling detail, not a
  // different scheduler.
  util::Rng rng(21);
  workload::JobSetSpec spec;
  spec.load = 1.0;
  spec.processors = 32;
  spec.min_phase_levels = 50;
  spec.max_phase_levels = 200;
  const auto generated = workload::make_job_set(rng, spec);
  auto subs_for = [&generated] {
    std::vector<JobSubmission> subs;
    for (const auto& g : generated) {
      subs.push_back(JobSubmission{g.job->fresh_clone(), 0, {}});
    }
    return subs;
  };
  sched::BGreedyExecution exec;
  sched::AControlRequest proto;
  const SimConfig config{.processors = 32, .quantum_length = 50};
  alloc::EquiPartition deq;
  const SimResult sync =
      simulate_job_set(subs_for(), exec, proto, deq, config);
  const SimResult async =
      simulate_job_set_async(subs_for(), exec, proto, config);
  const double ratio = static_cast<double>(async.makespan) /
                       static_cast<double>(sync.makespan);
  EXPECT_GT(ratio, 0.7);
  EXPECT_LT(ratio, 1.4);
}

TEST(AsyncSimulator, AdmissionCapRespected) {
  std::vector<JobSubmission> subs;
  for (int j = 0; j < 5; ++j) {
    subs.push_back(submit(workload::constant_profile(1, 40)));
  }
  sched::BGreedyExecution exec;
  sched::AControlRequest proto;
  SimConfig config{.processors = 8, .quantum_length = 20};
  config.max_active_jobs = 1;
  const SimResult result =
      simulate_job_set_async(std::move(subs), exec, proto, config);
  // One at a time: completions at 40, 80, ..., 200.
  std::vector<dag::Steps> completions;
  for (const auto& t : result.jobs) {
    completions.push_back(t.completion_step);
  }
  std::sort(completions.begin(), completions.end());
  EXPECT_EQ(completions,
            (std::vector<dag::Steps>{40, 80, 120, 160, 200}));
}

}  // namespace
}  // namespace abg::sim
