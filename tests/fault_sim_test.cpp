// Fault injection through both simulation engines: strict no-op when
// disabled, processor failure/repair, job crash under both work-loss and
// both policy-restart semantics, allotment revocation, and the lost-work
// accounting balance.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>

#include "alloc/equipartition.hpp"
#include "dag/profile_job.hpp"
#include "fault/fault_plan.hpp"
#include "fault/resilience.hpp"
#include "sched/a_control.hpp"
#include "sched/execution_policy.hpp"
#include "sched/quantum_length.hpp"
#include "sim/async_simulator.hpp"
#include "sim/simulator.hpp"
#include "sim/validate.hpp"
#include "util/rng.hpp"
#include "workload/profiles.hpp"

namespace abg::sim {
namespace {

std::vector<JobSubmission> wide_jobs(int count, dag::TaskCount width,
                                     dag::Steps levels) {
  std::vector<JobSubmission> subs;
  for (int j = 0; j < count; ++j) {
    JobSubmission s;
    s.job = std::make_unique<dag::ProfileJob>(
        dag::ProfileJob::from_runs(workload::constant_profile(width, levels)));
    subs.push_back(std::move(s));
  }
  return subs;
}

SimConfig base_config() {
  return SimConfig{.processors = 16, .quantum_length = 10};
}

SimResult run_sync(const SimConfig& config, int count = 3,
                   dag::TaskCount width = 8, dag::Steps levels = 60) {
  sched::BGreedyExecution exec;
  sched::AControlRequest proto;
  alloc::EquiPartition deq;
  return simulate_job_set(wide_jobs(count, width, levels), exec, proto, deq,
                          config);
}

SimResult run_async(const SimConfig& config, int count = 3,
                    dag::TaskCount width = 8, dag::Steps levels = 60) {
  sched::BGreedyExecution exec;
  sched::AControlRequest proto;
  return simulate_job_set_async(wide_jobs(count, width, levels), exec, proto,
                                config);
}

void expect_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.total_waste, b.total_waste);
  EXPECT_EQ(a.quanta, b.quanta);
  EXPECT_DOUBLE_EQ(a.mean_response_time, b.mean_response_time);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    const JobTrace& ta = a.jobs[j];
    const JobTrace& tb = b.jobs[j];
    EXPECT_EQ(ta.completion_step, tb.completion_step);
    ASSERT_EQ(ta.quanta.size(), tb.quanta.size());
    for (std::size_t q = 0; q < ta.quanta.size(); ++q) {
      EXPECT_EQ(ta.quanta[q].start_step, tb.quanta[q].start_step);
      EXPECT_EQ(ta.quanta[q].request, tb.quanta[q].request);
      EXPECT_EQ(ta.quanta[q].allotment, tb.quanta[q].allotment);
      EXPECT_EQ(ta.quanta[q].available, tb.quanta[q].available);
      EXPECT_EQ(ta.quanta[q].work, tb.quanta[q].work);
      EXPECT_EQ(ta.quanta[q].steps_used, tb.quanta[q].steps_used);
    }
  }
}

void expect_all_valid(const SimResult& result, int processors) {
  const std::vector<std::string> issues =
      validate_result(result, processors);
  EXPECT_TRUE(issues.empty()) << issues.front();
}

void expect_balanced(const SimResult& faulty, const SimResult& reference) {
  const fault::ResilienceReport report =
      fault::analyze_resilience(faulty, reference);
  EXPECT_TRUE(report.accounting_balances())
      << "allotted " << report.allotted_cycles << " != work "
      << report.work_done << " + lost " << report.lost_work << " + waste "
      << report.waste;
}

TEST(FaultSim, NullAndEmptyPlansAreStrictNoOps) {
  const SimResult plain = run_sync(base_config());
  fault::FaultPlan empty;
  SimConfig with_empty = base_config();
  with_empty.faults = &empty;
  const SimResult gated = run_sync(with_empty);
  expect_identical(plain, gated);
  EXPECT_FALSE(gated.fault_log.enabled);
}

TEST(FaultSim, AsyncEmptyPlanIsStrictNoOp) {
  const SimResult plain = run_async(base_config());
  fault::FaultPlan empty;
  SimConfig with_empty = base_config();
  with_empty.faults = &empty;
  const SimResult gated = run_async(with_empty);
  expect_identical(plain, gated);
  EXPECT_TRUE(gated.averaged_allotments);
}

TEST(FaultSim, ProcessorFailureShrinksTheMachineMidRun) {
  const SimResult reference = run_sync(base_config());

  const fault::FaultPlan plan = fault::step_failure_plan(50, 8);
  SimConfig config = base_config();
  config.faults = &plan;
  const SimResult result = run_sync(config);

  expect_all_valid(result, config.processors);
  EXPECT_TRUE(result.fault_log.enabled);
  EXPECT_EQ(result.fault_log.failure_events, 1);
  EXPECT_EQ(result.fault_log.min_capacity, 8);
  EXPECT_GE(result.makespan, reference.makespan);

  // After the failure no global quantum may use more than the surviving
  // capacity.
  std::map<dag::Steps, int> usage;
  for (const JobTrace& t : result.jobs) {
    for (const auto& q : t.quanta) {
      usage[q.start_step] += q.allotment;
    }
  }
  for (const auto& [start, total] : usage) {
    if (start >= 50) {
      EXPECT_LE(total, 8) << "oversubscribed after failure at " << start;
    }
  }
  expect_balanced(result, reference);
}

TEST(FaultSim, RepairRestoresCapacity) {
  const fault::FaultPlan plan = fault::impulse_failure_plan(20, 12, 100);
  SimConfig config = base_config();
  config.faults = &plan;
  const SimResult result = run_sync(config, 3, 8, 200);

  expect_all_valid(result, config.processors);
  EXPECT_EQ(result.fault_log.failure_events, 1);
  EXPECT_EQ(result.fault_log.repair_events, 1);
  EXPECT_EQ(result.fault_log.min_capacity, 4);

  // After the repair the machine is whole again: some quantum uses more
  // than the outage capacity.
  std::map<dag::Steps, int> usage;
  for (const JobTrace& t : result.jobs) {
    for (const auto& q : t.quanta) {
      usage[q.start_step] += q.allotment;
    }
  }
  bool recovered = false;
  for (const auto& [start, total] : usage) {
    if (start >= 120 && total > 4) {
      recovered = true;
    }
  }
  EXPECT_TRUE(recovered);
}

TEST(FaultSim, CheckpointCrashForfeitsOnlyTheInFlightQuantum) {
  const SimResult reference = run_sync(base_config());

  fault::FaultPlan plan = fault::periodic_crash_plan(1, 35, 1000, 1);
  plan.work_loss = fault::WorkLoss::kCheckpointQuantum;
  SimConfig config = base_config();
  config.faults = &plan;
  const SimResult result = run_sync(config);

  expect_all_valid(result, config.processors);
  ASSERT_EQ(result.fault_log.crashes.size(), 1u);
  EXPECT_EQ(result.fault_log.crashes[0].job, 1u);
  EXPECT_EQ(result.fault_log.lost_work, 0);
  EXPECT_EQ(result.fault_log.discarded_cycles, 0);

  // The voided quantum is still in the trace: zero work, zero steps, its
  // whole allotment wasted.
  const JobTrace& victim = result.jobs[1];
  const auto slot = static_cast<std::size_t>(35 / 10);  // quantum of step 35
  bool found = false;
  for (const auto& q : victim.quanta) {
    if (q.start_step == static_cast<dag::Steps>(slot) * 10) {
      EXPECT_EQ(q.work, 0);
      EXPECT_EQ(q.steps_used, 0);
      EXPECT_FALSE(q.full);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_TRUE(victim.finished());
  expect_balanced(result, reference);
}

TEST(FaultSim, ScratchCrashDiscardsCompletedWork) {
  const SimResult reference = run_sync(base_config());

  fault::FaultPlan plan = fault::periodic_crash_plan(0, 45, 1000, 1);
  plan.work_loss = fault::WorkLoss::kRestartFromScratch;
  SimConfig config = base_config();
  config.faults = &plan;
  const SimResult result = run_sync(config);

  expect_all_valid(result, config.processors);
  ASSERT_EQ(result.fault_log.crashes.size(), 1u);
  EXPECT_GT(result.fault_log.lost_work, 0);
  EXPECT_GE(result.fault_log.discarded_cycles,
            result.fault_log.lost_work);

  // The restarted trace starts over: quantum 1 of the victim begins after
  // the crash step.
  const JobTrace& victim = result.jobs[0];
  ASSERT_FALSE(victim.quanta.empty());
  EXPECT_EQ(victim.quanta[0].index, 1);
  EXPECT_GT(victim.quanta[0].start_step, 45);
  EXPECT_TRUE(victim.finished());
  EXPECT_EQ(victim.quanta.back().finished, true);
  expect_balanced(result, reference);
}

TEST(FaultSim, PolicyStatePreservedOrResetOnRestart) {
  // Crash late enough that A-Control's desire has grown past d(1).
  fault::FaultPlan preserve = fault::periodic_crash_plan(0, 55, 1000, 1);
  preserve.work_loss = fault::WorkLoss::kCheckpointQuantum;
  preserve.policy_on_restart = fault::PolicyOnRestart::kPreserve;
  SimConfig config = base_config();
  config.faults = &preserve;
  const SimResult kept = run_sync(config, 1, 12, 400);

  fault::FaultPlan reset = preserve;
  reset.policy_on_restart = fault::PolicyOnRestart::kReset;
  config.faults = &reset;
  const SimResult fresh = run_sync(config, 1, 12, 400);

  const auto first_after_crash = [](const SimResult& result) {
    const JobTrace& t = result.jobs[0];
    for (std::size_t q = 0; q + 1 < t.quanta.size(); ++q) {
      if (t.quanta[q].start_step <= 55 &&
          55 < t.quanta[q].start_step + t.quanta[q].length) {
        return std::pair<int, int>{t.quanta[q].request,
                                   t.quanta[q + 1].request};
      }
    }
    return std::pair<int, int>{-1, -1};
  };

  const auto [kept_crash_req, kept_next_req] = first_after_crash(kept);
  const auto [reset_crash_req, reset_next_req] = first_after_crash(fresh);
  ASSERT_GT(kept_crash_req, 1) << "desire never grew; test is vacuous";
  // Preserved: the restarted job re-requests its pre-crash desire.
  EXPECT_EQ(kept_next_req, kept_crash_req);
  // Reset: the restarted job re-requests d(1), its very first request.
  EXPECT_EQ(reset_next_req, fresh.jobs[0].quanta[0].request);
  EXPECT_LT(reset_next_req, reset_crash_req);
}

/// FNV-1a fold of every trace field of every job, in submission order.
std::uint64_t trace_fingerprint(const SimResult& result) {
  std::uint64_t h = 14695981039346656037ull;
  const auto fold = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const JobTrace& t : result.jobs) {
    fold(static_cast<std::uint64_t>(t.release_step));
    fold(static_cast<std::uint64_t>(t.completion_step));
    fold(static_cast<std::uint64_t>(t.work));
    fold(static_cast<std::uint64_t>(t.critical_path));
    fold(t.quanta.size());
    for (const sched::QuantumStats& q : t.quanta) {
      fold(static_cast<std::uint64_t>(q.index));
      fold(static_cast<std::uint64_t>(q.start_step));
      fold(static_cast<std::uint64_t>(q.request));
      fold(static_cast<std::uint64_t>(q.allotment));
      fold(static_cast<std::uint64_t>(q.available));
      fold(static_cast<std::uint64_t>(q.length));
      fold(static_cast<std::uint64_t>(q.steps_used));
      fold(static_cast<std::uint64_t>(q.work));
      fold(std::bit_cast<std::uint64_t>(q.cpl));
      fold(q.finished ? 1u : 0u);
      fold(q.full ? 1u : 0u);
    }
  }
  return h;
}

TEST(FaultSim, CrashesUnderAdaptiveQuantumLengthArePinned) {
  // Crash quanta feed the quantum-length policy too: several jobs under
  // an adaptive length schedule, crashed while others run and while one
  // runs alone, under every work-loss and restart-policy pairing.  The
  // expected fingerprints (every field of every trace) were recorded from
  // the engine before its crash branch was refactored.
  struct Case {
    fault::WorkLoss loss;
    fault::PolicyOnRestart policy;
    std::int64_t quanta;
    dag::Steps makespan;
    std::uint64_t fingerprint;
  };
  const Case cases[] = {
      {fault::WorkLoss::kCheckpointQuantum, fault::PolicyOnRestart::kPreserve,
       78, 1047, 0x4fad702c6f7b83c8ull},
      {fault::WorkLoss::kCheckpointQuantum, fault::PolicyOnRestart::kReset,
       75, 1000, 0xa31e22ea0f7895fdull},
      {fault::WorkLoss::kRestartFromScratch,
       fault::PolicyOnRestart::kPreserve, 141, 1817, 0xb2eec33b8c4fe06dull},
      {fault::WorkLoss::kRestartFromScratch, fault::PolicyOnRestart::kReset,
       138, 1822, 0x790dec4c6533dc76ull},
  };
  for (const Case& c : cases) {
    fault::FaultPlan plan = fault::periodic_crash_plan(0, 45, 110, 2);
    for (const fault::FaultPlan& more :
         {fault::periodic_crash_plan(1, 70, 1000, 1),
          fault::periodic_crash_plan(2, 900, 1000, 1)}) {
      plan.events.insert(plan.events.end(), more.events.begin(),
                         more.events.end());
    }
    plan.normalize();
    plan.work_loss = c.loss;
    plan.policy_on_restart = c.policy;
    sched::AdaptiveQuantumConfig qconfig;
    qconfig.min_length = 10;
    qconfig.max_length = 80;
    sched::AdaptiveQuantumLength lengths(qconfig);
    SimConfig config{.processors = 16};
    config.quantum_length_policy = &lengths;
    config.faults = &plan;

    std::vector<JobSubmission> subs;
    for (const int periods : {2, 3, 9}) {
      JobSubmission s;
      s.job = std::make_unique<dag::ProfileJob>(dag::ProfileJob::from_runs(
          workload::square_wave_profile(2, 40, 12, 40, periods)));
      subs.push_back(std::move(s));
    }
    sched::BGreedyExecution exec;
    sched::AControlRequest proto;
    alloc::EquiPartition deq;
    const SimResult result =
        simulate_job_set(std::move(subs), exec, proto, deq, config);

    EXPECT_EQ(result.fault_log.crashes.size(), 4u);
    EXPECT_EQ(result.quanta, c.quanta);
    EXPECT_EQ(result.makespan, c.makespan);
    EXPECT_EQ(trace_fingerprint(result), c.fingerprint)
        << std::hex << "0x" << trace_fingerprint(result) << std::dec
        << " quanta " << result.quanta << " makespan " << result.makespan;
  }
}

/// Keeps a fixed quantum length and records every input it is handed.
class RecordingQuantumLength final : public sched::QuantumLengthPolicy {
 public:
  RecordingQuantumLength(dag::Steps length,
                         std::vector<sched::QuantumStats>* inputs)
      : length_(length), inputs_(inputs) {}

  dag::Steps initial_length() const override { return length_; }
  dag::Steps next_length(const sched::QuantumStats& completed) override {
    inputs_->push_back(completed);
    return length_;
  }
  void reset() override {}
  std::string_view name() const override { return "recording"; }
  std::unique_ptr<sched::QuantumLengthPolicy> clone() const override {
    return std::make_unique<RecordingQuantumLength>(*this);
  }

 private:
  dag::Steps length_;
  std::vector<sched::QuantumStats>* inputs_;
};

TEST(FaultSim, CrashedQuantumFeedsTheLengthPolicyTheMachineAggregate) {
  // The sync loop hands its quantum-length policy the sole job's stats
  // when exactly one job ran the quantum, but a crash-voided record never
  // stands in for it: the crashed quantum reads as the machine aggregate,
  // whether the victim ran alone or beside another job.  Adaptive
  // policies read zero work as "no measurement", so only a recording
  // policy can tell the two apart.
  for (const int jobs : {1, 2}) {
    fault::FaultPlan plan = fault::periodic_crash_plan(0, 25, 1000, 1);
    std::vector<sched::QuantumStats> inputs;
    RecordingQuantumLength lengths(10, &inputs);
    SimConfig config = base_config();
    config.quantum_length_policy = &lengths;
    config.faults = &plan;
    const SimResult result = run_sync(config, jobs);
    ASSERT_EQ(result.fault_log.crashes.size(), 1u) << jobs << " jobs";

    // The crash at step 25 voids the quantum [20, 30); under checkpoint
    // recovery its record stays in the victim's trace.
    const auto at_crash = [](const sched::QuantumStats& s) {
      return s.start_step == 20;
    };
    const auto input = std::find_if(inputs.begin(), inputs.end(), at_crash);
    ASSERT_NE(input, inputs.end()) << jobs << " jobs";
    dag::TaskCount work = 0;
    int allotment = 0;
    for (const JobTrace& trace : result.jobs) {
      const auto record =
          std::find_if(trace.quanta.begin(), trace.quanta.end(), at_crash);
      ASSERT_NE(record, trace.quanta.end()) << jobs << " jobs";
      work += record->work;
      allotment += record->allotment;
    }
    EXPECT_EQ(input->steps_used, 10) << jobs << " jobs";
    EXPECT_EQ(input->length, 10) << jobs << " jobs";
    EXPECT_EQ(input->available, 16) << jobs << " jobs";
    EXPECT_EQ(input->work, work) << jobs << " jobs";
    EXPECT_EQ(input->allotment, allotment) << jobs << " jobs";
    EXPECT_FALSE(input->full) << jobs << " jobs";
  }
}

TEST(FaultSim, RestartDelayDefersReadmission) {
  fault::FaultPlan plan = fault::periodic_crash_plan(0, 25, 1000, 1);
  plan.restart_delay = 70;
  SimConfig config = base_config();
  config.faults = &plan;
  const SimResult result = run_sync(config, 1, 8, 100);

  const JobTrace& victim = result.jobs[0];
  // The quantum after the crash (step 25 lies in [20, 30)) may not start
  // before 30 + 70.
  bool checked = false;
  for (std::size_t q = 0; q + 1 < victim.quanta.size(); ++q) {
    if (victim.quanta[q].start_step == 20) {
      EXPECT_GE(victim.quanta[q + 1].start_step, 100);
      checked = true;
    }
  }
  EXPECT_TRUE(checked);
  EXPECT_TRUE(victim.finished());
}

TEST(FaultSim, AllotmentRevocationCapsTheVictim) {
  fault::FaultPlan plan;
  fault::FaultEvent revoke;
  revoke.step = 20;
  revoke.kind = fault::FaultKind::kAllotmentRevocation;
  revoke.job = 0;
  revoke.cap = 1;
  revoke.duration = 40;  // [20, 60)
  plan.events.push_back(revoke);
  SimConfig config = base_config();
  config.faults = &plan;
  const SimResult result = run_sync(config);

  expect_all_valid(result, config.processors);
  EXPECT_EQ(result.fault_log.revocation_events, 1);
  const JobTrace& victim = result.jobs[0];
  bool saw_window = false;
  for (const auto& q : victim.quanta) {
    if (q.start_step >= 20 && q.start_step < 60) {
      EXPECT_LE(q.allotment, 1)
          << "revocation ignored at " << q.start_step;
      saw_window = true;
    }
  }
  EXPECT_TRUE(saw_window);
}

TEST(FaultSim, AsyncCheckpointCrashKeepsExecutedWork) {
  const SimResult reference = run_async(base_config());

  fault::FaultPlan plan = fault::periodic_crash_plan(1, 37, 1000, 1);
  plan.work_loss = fault::WorkLoss::kCheckpointQuantum;
  SimConfig config = base_config();
  config.faults = &plan;
  const SimResult result = run_async(config);

  expect_all_valid(result, config.processors);
  ASSERT_EQ(result.fault_log.crashes.size(), 1u);
  EXPECT_EQ(result.fault_log.lost_work, 0);
  for (const JobTrace& t : result.jobs) {
    EXPECT_TRUE(t.finished());
  }
  expect_balanced(result, reference);
}

TEST(FaultSim, AsyncScratchCrashDiscardsWork) {
  const SimResult reference = run_async(base_config());

  fault::FaultPlan plan = fault::periodic_crash_plan(2, 41, 1000, 1);
  plan.work_loss = fault::WorkLoss::kRestartFromScratch;
  SimConfig config = base_config();
  config.faults = &plan;
  const SimResult result = run_async(config);

  expect_all_valid(result, config.processors);
  ASSERT_EQ(result.fault_log.crashes.size(), 1u);
  EXPECT_GT(result.fault_log.lost_work, 0);
  for (const JobTrace& t : result.jobs) {
    EXPECT_TRUE(t.finished());
  }
  expect_balanced(result, reference);
}

TEST(FaultSim, AsyncProcessorChurnCompletesAndBalances) {
  const SimResult reference = run_async(base_config());

  const fault::FaultPlan plan = fault::impulse_failure_plan(30, 10, 80);
  SimConfig config = base_config();
  config.faults = &plan;
  const SimResult result = run_async(config);

  expect_all_valid(result, config.processors);
  EXPECT_EQ(result.fault_log.min_capacity, 6);
  EXPECT_GE(result.makespan, reference.makespan);
  expect_balanced(result, reference);
}

TEST(FaultSim, AccountingBalancesUnderCombinedChurnAndCrashes) {
  util::Rng rng(2024);
  fault::FaultPlan plan =
      fault::poisson_churn_plan(rng, 400, 0.02, 60, 6);
  for (int j = 0; j < 3; ++j) {
    fault::FaultEvent crash;
    crash.step = 60 + 90 * j;
    crash.kind = fault::FaultKind::kJobCrash;
    crash.job = j;
    plan.events.push_back(crash);
  }
  plan.normalize();

  for (const fault::WorkLoss loss :
       {fault::WorkLoss::kCheckpointQuantum,
        fault::WorkLoss::kRestartFromScratch}) {
    for (const fault::PolicyOnRestart policy :
         {fault::PolicyOnRestart::kPreserve,
          fault::PolicyOnRestart::kReset}) {
      fault::FaultPlan variant = plan;
      variant.work_loss = loss;
      variant.policy_on_restart = policy;
      SimConfig config = base_config();
      config.faults = &variant;
      const SimResult reference = run_sync(base_config());
      const SimResult result = run_sync(config);
      expect_all_valid(result, config.processors);
      expect_balanced(result, reference);
      const SimResult async_result = run_async(config);
      expect_all_valid(async_result, config.processors);
      expect_balanced(async_result, run_async(base_config()));
    }
  }
}

}  // namespace
}  // namespace abg::sim
