// Resilience analysis: lost-work accounting, makespan degradation, and
// per-disturbance recovery of the aggregate request signal.
#include "fault/resilience.hpp"

#include <gtest/gtest.h>

#include "alloc/equipartition.hpp"
#include "dag/profile_job.hpp"
#include "fault/fault_plan.hpp"
#include "sched/a_control.hpp"
#include "sched/execution_policy.hpp"
#include "sim/report.hpp"
#include "sim/simulator.hpp"
#include "workload/profiles.hpp"

namespace abg::fault {
namespace {

sim::SimResult run(const sim::SimConfig& config, int jobs = 3,
                   dag::Steps levels = 200) {
  std::vector<sim::JobSubmission> subs;
  for (int j = 0; j < jobs; ++j) {
    sim::JobSubmission s;
    s.job = std::make_unique<dag::ProfileJob>(
        dag::ProfileJob::from_runs(workload::constant_profile(8, levels)));
    subs.push_back(std::move(s));
  }
  sched::BGreedyExecution exec;
  sched::AControlRequest proto;
  alloc::EquiPartition deq;
  return sim::simulate_job_set(std::move(subs), exec, proto, deq, config);
}

sim::SimConfig config_of() {
  return sim::SimConfig{.processors = 16, .quantum_length = 10};
}

TEST(Resilience, FaultFreeRunAgainstItselfIsTrivial) {
  const sim::SimResult reference = run(config_of());
  const ResilienceReport report =
      analyze_resilience(reference, reference);
  EXPECT_TRUE(report.accounting_balances());
  EXPECT_EQ(report.lost_work, 0);
  EXPECT_DOUBLE_EQ(report.makespan_degradation, 1.0);
  EXPECT_TRUE(report.responses.empty());
  EXPECT_EQ(report.crash_events, 0u);
}

TEST(Resilience, StepFailureProducesADisturbanceResponse) {
  const sim::SimResult reference = run(config_of());

  const FaultPlan plan = step_failure_plan(60, 8);
  sim::SimConfig config = config_of();
  config.faults = &plan;
  const sim::SimResult faulty = run(config);

  const ResilienceReport report = analyze_resilience(faulty, reference);
  EXPECT_TRUE(report.accounting_balances());
  EXPECT_EQ(report.failure_events, 1);
  EXPECT_EQ(report.min_capacity, 8);
  EXPECT_GE(report.makespan_degradation, 1.0);
  ASSERT_EQ(report.responses.size(), 1u);
  EXPECT_EQ(report.responses[0].step, 60);
  // The run outlives the disturbance, so the signal must re-settle.
  EXPECT_GE(report.responses[0].recovery_quanta, 0);
  EXPECT_GE(report.max_overshoot, 0.0);
}

TEST(Resilience, ImpulseFailureYieldsOneResponsePerDisturbance) {
  const sim::SimResult reference = run(config_of());

  const FaultPlan plan = impulse_failure_plan(40, 8, 60);
  sim::SimConfig config = config_of();
  config.faults = &plan;
  const sim::SimResult faulty = run(config);

  const ResilienceReport report = analyze_resilience(faulty, reference);
  EXPECT_TRUE(report.accounting_balances());
  EXPECT_EQ(report.responses.size(), 2u);  // failure and repair
}

TEST(Resilience, CrashAccountingFeedsTheReport) {
  const sim::SimResult reference = run(config_of());

  FaultPlan plan = periodic_crash_plan(0, 45, 1000, 1);
  plan.work_loss = WorkLoss::kRestartFromScratch;
  sim::SimConfig config = config_of();
  config.faults = &plan;
  const sim::SimResult faulty = run(config);

  const ResilienceReport report = analyze_resilience(faulty, reference);
  EXPECT_TRUE(report.accounting_balances());
  EXPECT_EQ(report.crash_events, 1u);
  EXPECT_GT(report.lost_work, 0);
  EXPECT_GT(report.waste, 0);
}

TEST(Resilience, FormatMentionsTheKeyQuantities) {
  const sim::SimResult reference = run(config_of());
  const FaultPlan plan = step_failure_plan(60, 8);
  sim::SimConfig config = config_of();
  config.faults = &plan;
  const sim::SimResult faulty = run(config);

  const std::string text =
      sim::resilience_report(faulty, reference);
  EXPECT_NE(text.find("resilience:"), std::string::npos);
  EXPECT_NE(text.find("(balanced)"), std::string::npos);
  EXPECT_NE(text.find("makespan:"), std::string::npos);
  EXPECT_NE(text.find("disturbance @60"), std::string::npos);
  EXPECT_EQ(text.find("IMBALANCED"), std::string::npos);
}

TEST(Resilience, ImbalancedLogIsCalledOut) {
  ResilienceReport report;
  report.work_done = 10;
  report.allotted_cycles = 5;  // impossible: flags as imbalanced
  EXPECT_FALSE(report.accounting_balances());
  const std::string text = format_resilience_report(report);
  EXPECT_NE(text.find("IMBALANCED"), std::string::npos);
}

}  // namespace
}  // namespace abg::fault
