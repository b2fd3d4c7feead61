#include "sim/validate.hpp"

#include <gtest/gtest.h>

#include "core/run.hpp"
#include "dag/profile_job.hpp"
#include "workload/fork_join.hpp"
#include "workload/profiles.hpp"

namespace abg::sim {
namespace {

JobTrace valid_trace() {
  JobTrace t;
  t.work = 30;
  t.critical_path = 20;
  t.completion_step = 25;
  sched::QuantumStats q1;
  q1.index = 1;
  q1.request = 1;
  q1.allotment = 1;
  q1.available = 4;
  q1.length = 10;
  q1.steps_used = 10;
  q1.work = 10;
  q1.cpl = 10.0;
  q1.full = true;
  sched::QuantumStats q2;
  q2.index = 2;
  q2.request = 2;
  q2.allotment = 2;
  q2.available = 4;
  q2.length = 10;
  q2.steps_used = 10;
  q2.work = 15;
  q2.cpl = 7.5;
  q2.full = true;
  q2.start_step = 10;
  sched::QuantumStats q3;
  q3.index = 3;
  q3.request = 2;
  q3.allotment = 2;
  q3.available = 4;
  q3.length = 10;
  q3.steps_used = 5;
  q3.work = 5;
  q3.cpl = 2.5;
  q3.finished = true;
  q3.start_step = 20;
  t.quanta = {q1, q2, q3};
  return t;
}

TEST(ValidateTrace, AcceptsConsistentTrace) {
  EXPECT_TRUE(validate_trace(valid_trace()).empty());
}

TEST(ValidateTrace, DetectsNonSequentialIndex) {
  JobTrace t = valid_trace();
  t.quanta[1].index = 7;
  EXPECT_FALSE(validate_trace(t).empty());
}

TEST(ValidateTrace, DetectsOverAllotment) {
  JobTrace t = valid_trace();
  t.quanta[0].allotment = t.quanta[0].request + 1;
  EXPECT_FALSE(validate_trace(t).empty());
}

TEST(ValidateTrace, DetectsImpossibleWork) {
  JobTrace t = valid_trace();
  t.quanta[0].work = 999;  // above allotment * length
  EXPECT_FALSE(validate_trace(t).empty());
}

TEST(ValidateTrace, DetectsEarlyFinishedFlag) {
  JobTrace t = valid_trace();
  t.quanta[0].finished = true;
  EXPECT_FALSE(validate_trace(t).empty());
}

TEST(ValidateTrace, DetectsWorkSumMismatch) {
  JobTrace t = valid_trace();
  t.work = 999;
  EXPECT_FALSE(validate_trace(t).empty());
}

TEST(ValidateTrace, DetectsAvailabilityBelowAllotment) {
  JobTrace t = valid_trace();
  t.quanta[1].available = 1;
  EXPECT_FALSE(validate_trace(t).empty());
}

TEST(ValidateTrace, DetectsWorkWithoutProgress) {
  JobTrace t = valid_trace();
  t.quanta[1].cpl = 0.0;
  EXPECT_FALSE(validate_trace(t).empty());
}

TEST(ValidateTrace, EveryMessageNamesItsQuantumAndCheck) {
  // Quantum 1 breaks every per-quantum check but two that contradict
  // negative work; quantum 2 breaks those two.  The messages are built
  // only on failure, so their exact text is pinned here.
  JobTrace t;
  t.work = 10;
  t.critical_path = 4;
  t.release_step = 5;
  t.completion_step = 3;
  sched::QuantumStats bad;
  bad.index = 5;
  bad.length = 0;
  bad.request = 2;
  bad.allotment = 5;
  bad.available = 4;
  bad.work = -1;
  bad.cpl = -1.0;
  bad.steps_used = 3;
  bad.full = true;
  bad.finished = true;
  sched::QuantumStats overworked;
  overworked.index = 2;
  overworked.length = 1;
  overworked.request = 1;
  overworked.allotment = 1;
  overworked.available = 1;
  overworked.work = 50;
  overworked.cpl = 1.0;
  overworked.steps_used = 1;
  overworked.full = true;
  t.quanta = {bad, overworked};
  const std::vector<std::string> expected = {
      "quantum 1: non-sequential index",
      "quantum 1: non-positive length",
      "quantum 1: allotment outside [0, request]",
      "quantum 1: availability below allotment",
      "quantum 1: negative work",
      "quantum 1: negative critical-path progress",
      "quantum 1: steps_used outside [0, length]",
      "quantum 1: full quantum with unused steps",
      "quantum 1: finished flag before the final quantum",
      "quantum 1: work done without critical-path progress",
      "quantum 2: work exceeds allotment capacity",
      "quantum 2: negative waste",
      "total quantum work exceeds the job's T1",
      "finished job's quantum work does not sum to T1",
      "finished job's quantum cpl does not sum to T_inf",
      "finished trace whose last quantum is not marked finished",
      "completion before release",
  };
  EXPECT_EQ(validate_trace(t), expected);
}

TEST(ValidateTrace, EmptyTraceIsValid) {
  EXPECT_TRUE(validate_trace(JobTrace{}).empty());
}

TEST(ValidateResult, AcceptsRealSimulations) {
  // Every trace the actual engines produce must validate cleanly.
  for (const auto& spec : {core::abg_spec(), core::a_greedy_spec(),
                           core::abg_auto_spec()}) {
    std::vector<JobSubmission> subs;
    for (int j = 0; j < 4; ++j) {
      JobSubmission s;
      s.job = std::make_unique<dag::ProfileJob>(dag::ProfileJob::from_runs(
          workload::square_wave_profile(1, 30, 5 + j, 30, 2)));
      s.release_step = 15 * j;
      subs.push_back(std::move(s));
    }
    const SimResult result = core::run_set(
        spec, std::move(subs),
        SimConfig{.processors = 16, .quantum_length = 25});
    const auto issues = validate_result(result, 16);
    EXPECT_TRUE(issues.empty())
        << spec.name << ": " << (issues.empty() ? "" : issues.front());
  }
}

TEST(ValidateResult, DetectsWrongMakespan) {
  SimResult result;
  result.jobs.push_back(valid_trace());
  result.makespan = 999;
  result.mean_response_time = 25.0;
  EXPECT_FALSE(validate_result(result, 16).empty());
}

TEST(ValidateResult, DetectsOversubscription) {
  SimResult result;
  JobTrace a = valid_trace();
  JobTrace b = valid_trace();
  for (auto* t : {&a, &b}) {
    for (auto& q : t->quanta) {
      q.allotment = 2;
      q.request = 2;
      q.work = std::min<dag::TaskCount>(q.work, 20);
    }
  }
  result.jobs = {a, b};
  result.makespan = 25;
  result.mean_response_time = 25.0;
  result.total_waste = a.total_waste() + b.total_waste();
  // Machine with 3 processors: 2 + 2 allotted in the same quantum slots.
  EXPECT_EQ(validate_result(result, 3),
            (std::vector<std::string>{"machine oversubscribed at step 0",
                                      "machine oversubscribed at step 10",
                                      "machine oversubscribed at step 20"}));
}

TEST(ValidateResult, RejectsBadProcessorCount) {
  EXPECT_FALSE(validate_result(SimResult{}, 0).empty());
}

// Two single-quantum traces with different quantum lengths whose holding
// intervals overlap on [10, 20): job A holds 2 processors over [0, 30),
// job B holds 2 over [10, 20).
SimResult non_uniform_result() {
  SimResult result;
  JobTrace a;
  a.work = 10;
  a.critical_path = 5;
  a.completion_step = 30;
  sched::QuantumStats qa;
  qa.index = 1;
  qa.request = 2;
  qa.allotment = 2;
  qa.available = 2;
  qa.length = 30;
  qa.steps_used = 30;
  qa.work = 10;
  qa.cpl = 5.0;
  qa.finished = true;
  a.quanta = {qa};

  JobTrace b;
  b.work = 8;
  b.critical_path = 4;
  b.completion_step = 20;
  sched::QuantumStats qb;
  qb.index = 1;
  qb.start_step = 10;
  qb.request = 2;
  qb.allotment = 2;
  qb.available = 2;
  qb.length = 10;
  qb.steps_used = 10;
  qb.work = 8;
  qb.cpl = 4.0;
  qb.finished = true;
  b.quanta = {qb};

  result.jobs = {a, b};
  result.makespan = 30;
  result.mean_response_time = 25.0;
  result.total_waste = a.total_waste() + b.total_waste();
  return result;
}

TEST(ValidateResult, DetectsOversubscriptionWithNonUniformLengths) {
  // 4 processors held on [10, 20) but the machine only has 3: the old
  // uniform-length-only check skipped this case entirely.
  const SimResult result = non_uniform_result();
  const auto issues = validate_result(result, 3);
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues.front().find("oversubscribed"), std::string::npos);
}

TEST(ValidateResult, AcceptsNonUniformLengthsWithinCapacity) {
  EXPECT_TRUE(validate_result(non_uniform_result(), 4).empty());
}

TEST(ValidateResult, AveragedAllotmentsSkipTheCapacitySweep) {
  // Async-engine results record rounded time-averaged allotments whose
  // instantaneous sum can legitimately exceed P; the sweep must not fire.
  SimResult result = non_uniform_result();
  result.averaged_allotments = true;
  EXPECT_TRUE(validate_result(result, 3).empty());
}

TEST(ValidateResult, AveragedAllotmentsDegradeWithAnExplicitNote) {
  // The skipped capacity sweep is not silent: the report carries an
  // advisory note naming the checks that could not run, while issues stay
  // empty (notes never make a result invalid).
  SimResult result = non_uniform_result();
  result.averaged_allotments = true;
  const ValidationReport report = validate_result_report(result, 3);
  EXPECT_TRUE(report.valid());
  ASSERT_EQ(report.notes.size(), 1u);
  EXPECT_NE(report.notes.front().find("machine-capacity checks skipped"),
            std::string::npos);
  EXPECT_NE(report.notes.front().find("asynchronous engine"),
            std::string::npos);
}

TEST(ValidateResult, ExactResultsCarryNoNotes) {
  const ValidationReport report =
      validate_result_report(non_uniform_result(), 4);
  EXPECT_TRUE(report.valid());
  EXPECT_TRUE(report.notes.empty());
}

}  // namespace
}  // namespace abg::sim
