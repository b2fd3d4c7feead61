#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "alloc/equipartition.hpp"
#include "dag/profile_job.hpp"
#include "sched/a_control.hpp"
#include "sched/execution_policy.hpp"
#include "workload/profiles.hpp"

namespace abg::sim {
namespace {

JobSubmission submit(std::vector<dag::LevelRun> runs,
                     dag::Steps release = 0, std::string name = {}) {
  JobSubmission s;
  s.job = std::make_unique<dag::ProfileJob>(
      dag::ProfileJob::from_runs(std::move(runs)));
  s.release_step = release;
  s.name = std::move(name);
  return s;
}

SimConfig small_config() {
  return SimConfig{.processors = 16, .quantum_length = 10};
}

TEST(Simulator, SingleBatchedJobMatchesEngineSemantics) {
  std::vector<JobSubmission> subs;
  subs.push_back(submit(workload::constant_profile(4, 100)));
  sched::BGreedyExecution exec;
  sched::AControlRequest proto;
  alloc::EquiPartition deq;
  const SimResult result =
      simulate_job_set(std::move(subs), exec, proto, deq, small_config());
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_TRUE(result.jobs[0].finished());
  EXPECT_EQ(result.makespan, result.jobs[0].completion_step);
  EXPECT_DOUBLE_EQ(result.mean_response_time,
                   static_cast<double>(result.jobs[0].response_time()));
}

TEST(Simulator, AllJobsComplete) {
  std::vector<JobSubmission> subs;
  for (int j = 0; j < 5; ++j) {
    subs.push_back(submit(workload::constant_profile(2 + j, 50)));
  }
  sched::BGreedyExecution exec;
  sched::AControlRequest proto;
  alloc::EquiPartition deq;
  const SimResult result =
      simulate_job_set(std::move(subs), exec, proto, deq, small_config());
  for (const JobTrace& t : result.jobs) {
    EXPECT_TRUE(t.finished());
    EXPECT_GE(t.response_time(), t.critical_path);
  }
}

TEST(Simulator, MakespanIsMaxCompletion) {
  std::vector<JobSubmission> subs;
  subs.push_back(submit(workload::constant_profile(1, 30)));
  subs.push_back(submit(workload::constant_profile(1, 120)));
  sched::BGreedyExecution exec;
  sched::AControlRequest proto;
  alloc::EquiPartition deq;
  const SimResult result =
      simulate_job_set(std::move(subs), exec, proto, deq, small_config());
  dag::Steps max_completion = 0;
  for (const JobTrace& t : result.jobs) {
    max_completion = std::max(max_completion, t.completion_step);
  }
  EXPECT_EQ(result.makespan, max_completion);
}

TEST(Simulator, MachineNeverOversubscribedUnderDeq) {
  std::vector<JobSubmission> subs;
  for (int j = 0; j < 6; ++j) {
    subs.push_back(submit(workload::constant_profile(8, 60)));
  }
  sched::BGreedyExecution exec;
  sched::AControlRequest proto;
  alloc::EquiPartition deq;
  const SimConfig config = small_config();
  const SimResult result =
      simulate_job_set(std::move(subs), exec, proto, deq, config);
  // Reconstruct global per-quantum usage: jobs record their local quantum
  // index, but since all jobs are batched at 0 the local index equals the
  // global one while the job is alive.
  std::vector<int> usage;
  for (const JobTrace& t : result.jobs) {
    for (std::size_t q = 0; q < t.quanta.size(); ++q) {
      if (usage.size() <= q) {
        usage.resize(q + 1, 0);
      }
      usage[q] += t.quanta[q].allotment;
    }
  }
  for (const int u : usage) {
    EXPECT_LE(u, config.processors);
  }
}

TEST(Simulator, EveryActiveJobGetsAProcessorWhenJobsFewerThanP) {
  // The fairness prerequisite of Section 5.1: with |J| <= P under DEQ each
  // job receives at least one processor every quantum it is active.
  std::vector<JobSubmission> subs;
  for (int j = 0; j < 4; ++j) {
    subs.push_back(submit(workload::constant_profile(32, 40)));
  }
  sched::BGreedyExecution exec;
  sched::AControlRequest proto;
  alloc::EquiPartition deq;
  const SimResult result =
      simulate_job_set(std::move(subs), exec, proto, deq, small_config());
  for (const JobTrace& t : result.jobs) {
    for (const auto& q : t.quanta) {
      EXPECT_GE(q.allotment, 1);
    }
  }
}

TEST(Simulator, ReleaseTimesDelayActivation) {
  std::vector<JobSubmission> subs;
  subs.push_back(submit(workload::constant_profile(1, 20), 0));
  subs.push_back(submit(workload::constant_profile(1, 20), 35));
  sched::BGreedyExecution exec;
  sched::AControlRequest proto;
  alloc::EquiPartition deq;
  const SimResult result =
      simulate_job_set(std::move(subs), exec, proto, deq, small_config());
  // Job 1 released at step 35 activates at the next boundary (40) and so
  // completes at 60; response time 60 - 35 = 25.
  EXPECT_EQ(result.jobs[1].completion_step, 60);
  EXPECT_EQ(result.jobs[1].response_time(), 25);
  // Job 0 runs alone from step 0.
  EXPECT_EQ(result.jobs[0].completion_step, 20);
}

TEST(Simulator, IdleGapBeforeLateRelease) {
  // Only one job, released far in the future: the simulator skips idle
  // quanta rather than spinning.
  std::vector<JobSubmission> subs;
  subs.push_back(submit(workload::constant_profile(1, 10), 1000));
  sched::BGreedyExecution exec;
  sched::AControlRequest proto;
  alloc::EquiPartition deq;
  const SimResult result =
      simulate_job_set(std::move(subs), exec, proto, deq, small_config());
  EXPECT_EQ(result.jobs[0].completion_step, 1010);
  EXPECT_EQ(result.jobs[0].response_time(), 10);
}

TEST(Simulator, MeanResponseTimeIsAverage) {
  std::vector<JobSubmission> subs;
  subs.push_back(submit(workload::constant_profile(1, 30)));
  subs.push_back(submit(workload::constant_profile(1, 50)));
  sched::BGreedyExecution exec;
  sched::AControlRequest proto;
  alloc::EquiPartition deq;
  const SimResult result =
      simulate_job_set(std::move(subs), exec, proto, deq, small_config());
  const double expected =
      (static_cast<double>(result.jobs[0].response_time()) +
       static_cast<double>(result.jobs[1].response_time())) /
      2.0;
  EXPECT_DOUBLE_EQ(result.mean_response_time, expected);
}

TEST(Simulator, TotalWasteAggregates) {
  std::vector<JobSubmission> subs;
  subs.push_back(submit(workload::square_wave_profile(1, 20, 6, 20, 2)));
  subs.push_back(submit(workload::constant_profile(3, 60)));
  sched::BGreedyExecution exec;
  sched::AControlRequest proto;
  alloc::EquiPartition deq;
  const SimResult result =
      simulate_job_set(std::move(subs), exec, proto, deq, small_config());
  EXPECT_EQ(result.total_waste,
            result.jobs[0].total_waste() + result.jobs[1].total_waste());
  EXPECT_GE(result.total_waste, 0);
}

TEST(Simulator, ZeroWorkJobCompletesAtRelease) {
  std::vector<JobSubmission> subs;
  subs.push_back(submit({}, 0));
  subs.push_back(submit(workload::constant_profile(1, 10)));
  sched::BGreedyExecution exec;
  sched::AControlRequest proto;
  alloc::EquiPartition deq;
  const SimResult result =
      simulate_job_set(std::move(subs), exec, proto, deq, small_config());
  EXPECT_EQ(result.jobs[0].completion_step, 0);
  EXPECT_TRUE(result.jobs[0].quanta.empty());
}

TEST(Simulator, RejectsBadInputs) {
  sched::BGreedyExecution exec;
  sched::AControlRequest proto;
  alloc::EquiPartition deq;
  {
    std::vector<JobSubmission> subs;
    subs.push_back(JobSubmission{});  // null job
    EXPECT_THROW(
        simulate_job_set(std::move(subs), exec, proto, deq, small_config()),
        std::invalid_argument);
  }
  {
    std::vector<JobSubmission> subs;
    subs.push_back(submit({{1, 1}}, -5));
    EXPECT_THROW(
        simulate_job_set(std::move(subs), exec, proto, deq, small_config()),
        std::invalid_argument);
  }
  {
    std::vector<JobSubmission> subs;
    subs.push_back(submit({{1, 1}}));
    EXPECT_THROW(simulate_job_set(std::move(subs), exec, proto, deq,
                                  SimConfig{.processors = 0}),
                 std::invalid_argument);
  }
}

TEST(Simulator, EmptyJobSet) {
  sched::BGreedyExecution exec;
  sched::AControlRequest proto;
  alloc::EquiPartition deq;
  const SimResult result =
      simulate_job_set({}, exec, proto, deq, small_config());
  EXPECT_TRUE(result.jobs.empty());
  EXPECT_EQ(result.makespan, 0);
  EXPECT_DOUBLE_EQ(result.mean_response_time, 0.0);
}

TEST(Simulator, AdmissionCapLimitsConcurrency) {
  // 6 identical jobs, cap 2: at most two run per quantum; the rest queue.
  std::vector<JobSubmission> subs;
  for (int j = 0; j < 6; ++j) {
    subs.push_back(submit(workload::constant_profile(1, 20)));
  }
  sched::BGreedyExecution exec;
  sched::AControlRequest proto;
  alloc::EquiPartition deq;
  SimConfig config = small_config();
  config.max_active_jobs = 2;
  const SimResult result =
      simulate_job_set(std::move(subs), exec, proto, deq, config);
  // Reconstruct concurrent activity per global quantum slot.
  std::map<dag::Steps, int> active;
  for (const JobTrace& t : result.jobs) {
    for (const auto& q : t.quanta) {
      ++active[q.start_step];
    }
  }
  for (const auto& [start, count] : active) {
    EXPECT_LE(count, 2) << "slot " << start;
  }
  for (const JobTrace& t : result.jobs) {
    EXPECT_TRUE(t.finished());
  }
  // Serial 20-step jobs, two at a time: the last pair completes at 60.
  EXPECT_EQ(result.makespan, 60);
}

TEST(Simulator, AdmissionIsFcfsByRelease) {
  std::vector<JobSubmission> subs;
  // Submission order deliberately reversed from release order.
  subs.push_back(submit(workload::constant_profile(1, 20), 40, "late"));
  subs.push_back(submit(workload::constant_profile(1, 20), 0, "early"));
  subs.push_back(submit(workload::constant_profile(1, 20), 20, "middle"));
  sched::BGreedyExecution exec;
  sched::AControlRequest proto;
  alloc::EquiPartition deq;
  SimConfig config = small_config();
  config.max_active_jobs = 1;
  const SimResult result =
      simulate_job_set(std::move(subs), exec, proto, deq, config);
  // One at a time, FCFS by release: early (0-20), middle (20-40),
  // late (40-60).
  EXPECT_EQ(result.jobs[1].completion_step, 20);
  EXPECT_EQ(result.jobs[2].completion_step, 40);
  EXPECT_EQ(result.jobs[0].completion_step, 60);
}

TEST(Simulator, DefaultCapIsMachineSize) {
  // 5 jobs on a 3-processor machine: the default cap (P) keeps at most 3
  // concurrent so each running job can hold a processor.
  std::vector<JobSubmission> subs;
  for (int j = 0; j < 5; ++j) {
    subs.push_back(submit(workload::constant_profile(2, 30)));
  }
  sched::BGreedyExecution exec;
  sched::AControlRequest proto;
  alloc::EquiPartition deq;
  const SimConfig config{.processors = 3, .quantum_length = 10};
  const SimResult result =
      simulate_job_set(std::move(subs), exec, proto, deq, config);
  std::map<dag::Steps, int> active;
  for (const JobTrace& t : result.jobs) {
    EXPECT_TRUE(t.finished());
    for (const auto& q : t.quanta) {
      ++active[q.start_step];
      EXPECT_GE(q.allotment, 1);
    }
  }
  for (const auto& [start, count] : active) {
    EXPECT_LE(count, 3);
  }
}

TEST(Simulator, DeterministicAcrossRuns) {
  auto build = [] {
    std::vector<JobSubmission> subs;
    subs.push_back(submit(workload::square_wave_profile(1, 15, 9, 15, 2)));
    subs.push_back(submit(workload::constant_profile(5, 70), 12));
    return subs;
  };
  sched::BGreedyExecution exec;
  sched::AControlRequest proto;
  alloc::EquiPartition deq1;
  alloc::EquiPartition deq2;
  const SimResult r1 =
      simulate_job_set(build(), exec, proto, deq1, small_config());
  const SimResult r2 =
      simulate_job_set(build(), exec, proto, deq2, small_config());
  EXPECT_EQ(r1.makespan, r2.makespan);
  EXPECT_DOUBLE_EQ(r1.mean_response_time, r2.mean_response_time);
  EXPECT_EQ(r1.total_waste, r2.total_waste);
}

// --- Composition table -----------------------------------------------------

TEST(Composition, TableForbidsExactlyTheListedPairs) {
  struct Axis {
    bool RunAxes::*engaged;
    const char* name;  // as the message names it
  };
  const std::vector<Axis> axes = {
      {&RunAxes::async, "the async engine"},
      {&RunAxes::faults, "fault plans"},
      {&RunAxes::quantum_policy, "quantum-length policies"},
      {&RunAxes::hier, "hierarchical allocation"},
      {&RunAxes::cluster, "cluster mode"},
      {&RunAxes::open, "open streaming"},
      {&RunAxes::staggered_release, "non-batched release"},
  };
  // Indices into `axes`, smaller first.
  const std::set<std::pair<std::size_t, std::size_t>> forbidden = {
      {0, 3}, {1, 3}, {2, 3},          // hier
      {0, 4}, {1, 4}, {2, 4}, {3, 4},  // cluster
      {0, 5}, {1, 5}, {2, 5}, {3, 5}, {4, 5}, {5, 6},  // open
  };
  EXPECT_NO_THROW(check_composition(RunAxes{}, "ctx"));
  for (std::size_t a = 0; a < axes.size(); ++a) {
    RunAxes alone;
    alone.*axes[a].engaged = true;
    EXPECT_NO_THROW(check_composition(alone, "ctx")) << axes[a].name;
    for (std::size_t b = a + 1; b < axes.size(); ++b) {
      RunAxes pair;
      pair.*axes[a].engaged = true;
      pair.*axes[b].engaged = true;
      const std::string label =
          std::string(axes[a].name) + " + " + axes[b].name;
      if (!forbidden.contains({a, b})) {
        EXPECT_NO_THROW(check_composition(pair, "ctx")) << label;
        continue;
      }
      try {
        check_composition(pair, "ctx");
        ADD_FAILURE() << label << " composed";
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_EQ(what.rfind("ctx: ", 0), 0u) << what;
        EXPECT_NE(what.find(axes[a].name), std::string::npos) << what;
        EXPECT_NE(what.find(axes[b].name), std::string::npos) << what;
      }
    }
  }
}

TEST(Composition, AxesOfReadsEveryClosedAxis) {
  EXPECT_FALSE(axes_of(SimConfig{}).async);
  SimConfig config;
  config.engine = EngineKind::kAsync;
  const fault::FaultPlan plan = fault::step_failure_plan(10, 1);
  config.faults = &plan;
  sched::FixedQuantumLength fixed(10);
  config.quantum_length_policy = &fixed;
  config.hier.groups = 2;
  config.cluster.machines = 2;
  const RunAxes axes = axes_of(config);
  EXPECT_TRUE(axes.async && axes.faults && axes.quantum_policy &&
              axes.hier && axes.cluster);
  EXPECT_FALSE(axes.open || axes.staggered_release);
  // An empty plan is no fault axis: the engine runs the fault-free path.
  const fault::FaultPlan empty;
  config.faults = &empty;
  EXPECT_FALSE(axes_of(config).faults);
}

TEST(Composition, ValidateRejectsBadMachineAndForbiddenPairs) {
  SimConfig config = small_config();
  EXPECT_NO_THROW(config.validate("ctx"));
  config.quantum_length = 0;
  EXPECT_THROW(config.validate("ctx"), std::invalid_argument);
  config = small_config();
  config.hier.groups = 2;
  config.engine = EngineKind::kAsync;
  EXPECT_THROW(config.validate("ctx"), std::invalid_argument);
}

}  // namespace
}  // namespace abg::sim
