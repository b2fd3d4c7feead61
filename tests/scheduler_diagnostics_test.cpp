#include "metrics/scheduler_diagnostics.hpp"

#include <gtest/gtest.h>

#include "core/run.hpp"
#include "dag/profile_job.hpp"
#include "sim/quantum_engine.hpp"
#include "workload/profiles.hpp"

namespace abg::metrics {
namespace {

sched::QuantumStats quantum(int request, int allotment, dag::TaskCount work,
                            dag::Steps length = 100) {
  sched::QuantumStats q;
  q.request = request;
  q.allotment = allotment;
  q.work = work;
  q.length = length;
  q.cpl = 1.0;
  q.full = true;
  return q;
}

TEST(ClassifyUtilization, Validation) {
  sim::JobTrace t;
  EXPECT_THROW(classify_utilization(t, 0.0), std::invalid_argument);
  EXPECT_THROW(classify_utilization(t, 1.0), std::invalid_argument);
}

TEST(ClassifyUtilization, ThreeWaySplit) {
  sim::JobTrace t;
  t.quanta.push_back(quantum(4, 4, 400));  // efficient + satisfied
  t.quanta.push_back(quantum(8, 4, 400));  // efficient + deprived
  t.quanta.push_back(quantum(4, 4, 100));  // inefficient (100 < 0.8*400)
  const UtilizationBreakdown b = classify_utilization(t, 0.8);
  EXPECT_EQ(b.efficient_satisfied, 1u);
  EXPECT_EQ(b.efficient_deprived, 1u);
  EXPECT_EQ(b.inefficient, 1u);
  EXPECT_EQ(b.total(), 3u);
}

TEST(ClassifyUtilization, EmptyTrace) {
  EXPECT_EQ(classify_utilization(sim::JobTrace{}).total(), 0u);
}

TEST(ReallocationCount, CountsChangesIncludingPlacement) {
  sim::JobTrace t;
  t.quanta.push_back(quantum(1, 1, 100));
  t.quanta.push_back(quantum(4, 4, 400));
  t.quanta.push_back(quantum(4, 4, 400));
  t.quanta.push_back(quantum(2, 2, 200));
  EXPECT_EQ(reallocation_count(t), 3u);  // 0->1, 1->4, 4->2
  EXPECT_EQ(processors_migrated(t), 1 + 3 + 2);
}

TEST(ReallocationCount, EmptyTrace) {
  EXPECT_EQ(reallocation_count(sim::JobTrace{}), 0u);
  EXPECT_EQ(processors_migrated(sim::JobTrace{}), 0);
}

TEST(JainFairness, PerfectWhenSlowdownsEqual) {
  sim::SimResult result;
  for (int j = 0; j < 3; ++j) {
    sim::JobTrace t;
    t.critical_path = 100;
    t.completion_step = 200;  // slowdown 2 for everyone
    result.jobs.push_back(std::move(t));
  }
  EXPECT_NEAR(jain_slowdown_fairness(result), 1.0, 1e-12);
}

TEST(JainFairness, PenalizesSkew) {
  sim::SimResult result;
  sim::JobTrace fast;
  fast.critical_path = 100;
  fast.completion_step = 100;  // slowdown 1
  sim::JobTrace slow;
  slow.critical_path = 100;
  slow.completion_step = 900;  // slowdown 9
  result.jobs.push_back(std::move(fast));
  result.jobs.push_back(std::move(slow));
  // (1+9)^2 / (2 * (1 + 81)) = 100/164.
  EXPECT_NEAR(jain_slowdown_fairness(result), 100.0 / 164.0, 1e-12);
}

TEST(JainFairness, RequiresFinishedJobs) {
  sim::SimResult empty;
  EXPECT_THROW(jain_slowdown_fairness(empty), std::invalid_argument);
}

TEST(JainFairness, DeqKeepsSlowdownsBalanced) {
  // Identical jobs under DEQ: slowdowns should be nearly equal.
  std::vector<sim::JobSubmission> subs;
  for (int j = 0; j < 4; ++j) {
    sim::JobSubmission s;
    s.job = std::make_unique<dag::ProfileJob>(
        dag::ProfileJob::from_runs(workload::constant_profile(8, 200)));
    subs.push_back(std::move(s));
  }
  const sim::SimResult result = core::run_set(
      core::abg_spec(), std::move(subs),
      sim::SimConfig{.processors = 16, .quantum_length = 25});
  EXPECT_GT(jain_slowdown_fairness(result), 0.95);
}

TEST(SchedulerFingerprints, AbgSettlesAGreedyChurns) {
  // The diagnostic the paper's Figure 1 argument implies: on a
  // constant-parallelism job ABG reallocates O(1) times while A-Greedy
  // reallocates roughly every other quantum forever.
  const auto make_job = [] {
    return workload::constant_parallelism_chains(10, 4000);
  };
  const sim::SingleJobConfig config{.processors = 64,
                                    .quantum_length = 100};
  const auto abg_job = make_job();
  const sim::JobTrace abg_trace =
      core::run_single(core::abg_spec(), *abg_job, config);
  const auto ag_job = make_job();
  const sim::JobTrace ag_trace =
      core::run_single(core::a_greedy_spec(), *ag_job, config);

  EXPECT_LE(reallocation_count(abg_trace), 5u);
  EXPECT_GE(reallocation_count(ag_trace), ag_trace.quanta.size() / 2);
  EXPECT_LT(processors_migrated(abg_trace),
            processors_migrated(ag_trace) / 4);

  // Utilization fingerprint: ABG almost always efficient-satisfied;
  // A-Greedy alternates with inefficient quanta.
  const UtilizationBreakdown abg_mix = classify_utilization(abg_trace);
  const UtilizationBreakdown ag_mix = classify_utilization(ag_trace);
  EXPECT_GE(abg_mix.efficient_satisfied, abg_trace.quanta.size() - 3);
  EXPECT_GE(ag_mix.inefficient, ag_trace.quanta.size() / 3);
}

}  // namespace
}  // namespace abg::metrics
