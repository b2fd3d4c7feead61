// Cross-cutting integration tests tying independent subsystems together:
// frequency response vs time-domain simulation, work-stealing jobs inside
// the multiprogrammed simulator, and Theorem 5 under the round-robin
// allocator (also fair and non-reserving).
#include <gtest/gtest.h>

#include <cmath>

#include "alloc/round_robin.hpp"
#include "control/analysis.hpp"
#include "control/closed_loop.hpp"
#include "core/run.hpp"
#include "dag/builders.hpp"
#include "dag/profile_job.hpp"
#include "metrics/bounds.hpp"
#include "metrics/lower_bounds.hpp"
#include "metrics/parallelism_stats.hpp"
#include "sim/validate.hpp"
#include "steal/schedulers.hpp"
#include "steal/work_stealing_job.hpp"
#include "workload/job_set.hpp"

namespace abg {
namespace {

TEST(FrequencyResponse, MatchesTimeDomainSinusoid) {
  // Drive the ABG closed loop with a sinusoid and compare the steady-state
  // output amplitude against |T(e^{jw})|.
  const double r = 0.4;
  const double a = 10.0;
  const control::TransferFunction loop =
      control::abg_closed_loop(control::theorem1_gain(r, a), a);
  for (const double omega : {0.3, 1.0, 2.5}) {
    const std::size_t n = 4000;
    std::vector<double> input(n);
    for (std::size_t k = 0; k < n; ++k) {
      input[k] = std::sin(omega * static_cast<double>(k));
    }
    const auto output = loop.simulate(input);
    double peak = 0.0;
    for (std::size_t k = n / 2; k < n; ++k) {  // steady state only
      peak = std::max(peak, std::fabs(output[k]));
    }
    EXPECT_NEAR(peak, control::magnitude_response(loop, omega), 0.02)
        << "omega = " << omega;
  }
}

TEST(WorkStealingJobSet, RunsUnderDeqSimulator) {
  // Work-stealing jobs competing under DEQ: the whole two-level machinery
  // must compose, traces must validate, muggings occur when DEQ shrinks
  // allotments.
  std::vector<sim::JobSubmission> subs;
  for (int j = 0; j < 3; ++j) {
    sim::JobSubmission s;
    s.job = std::make_unique<steal::WorkStealingJob>(
        dag::builders::fork_join({{1, 50}, {12, 80}, {1, 50}}),
        static_cast<std::uint64_t>(j) * 31 + 7);
    subs.push_back(std::move(s));
  }
  steal::WorkStealingExecution execution;
  steal::AStealRequest prototype;
  alloc::RoundRobin allocator;
  const sim::SimResult result = sim::simulate_job_set(
      std::move(subs), execution, prototype, allocator,
      sim::SimConfig{.processors = 16, .quantum_length = 40});
  const auto issues = sim::validate_result(result, 16);
  ASSERT_TRUE(issues.empty()) << issues.front();
  for (const auto& t : result.jobs) {
    EXPECT_TRUE(t.finished());
  }
}

TEST(Theorem5UnderRoundRobin, BoundsStillHold) {
  // Theorem 5 only needs a fair, non-reserving, conservative allocator;
  // round-robin qualifies.
  util::Rng rng(4242);
  workload::JobSetSpec spec;
  spec.load = 1.0;
  spec.processors = 64;
  spec.min_transition_factor = 2.0;
  spec.max_transition_factor = 6.0;
  spec.min_phase_levels = 100;
  spec.max_phase_levels = 400;
  auto generated = workload::make_job_set(rng, spec);

  std::vector<metrics::JobSummary> summaries;
  std::vector<sim::JobSubmission> subs;
  for (auto& g : generated) {
    summaries.push_back(metrics::JobSummary{
        g.job->total_work(), g.job->critical_path(), 0});
    sim::JobSubmission s;
    s.job = std::move(g.job);
    subs.push_back(std::move(s));
  }
  alloc::RoundRobin allocator;
  const double rate = 0.05;
  const sim::SimResult result = core::run_set(
      core::abg_spec(core::AbgConfig{.convergence_rate = rate}),
      std::move(subs),
      sim::SimConfig{.processors = 64, .quantum_length = 200}, &allocator);

  double max_transition = 1.0;
  for (const auto& t : result.jobs) {
    max_transition = std::max(max_transition,
                              metrics::empirical_transition_factor(t));
  }
  ASSERT_LT(rate, 1.0 / max_transition);
  const double makespan_star = metrics::makespan_lower_bound(summaries, 64);
  const double response_star = metrics::response_lower_bound(summaries, 64);
  EXPECT_LE(static_cast<double>(result.makespan),
            1.05 * metrics::theorem5_makespan_bound(
                       makespan_star, max_transition, rate, 200,
                       summaries.size()));
  EXPECT_LE(result.mean_response_time,
            1.05 * metrics::theorem5_response_bound(
                       response_star, max_transition, rate, 200,
                       summaries.size()));
}

TEST(AutoRateScheduler, CompetitiveAcrossJobSet) {
  // ABG-auto on a job set: completes, validates, and stays within 1.4x of
  // hand-tuned ABG's makespan.
  util::Rng rng(99);
  workload::JobSetSpec spec;
  spec.load = 1.0;
  spec.processors = 64;
  spec.min_phase_levels = 100;
  spec.max_phase_levels = 400;
  const auto generated = workload::make_job_set(rng, spec);
  auto to_subs = [&generated] {
    std::vector<sim::JobSubmission> subs;
    for (const auto& g : generated) {
      sim::JobSubmission s;
      s.job = g.job->fresh_clone();
      subs.push_back(std::move(s));
    }
    return subs;
  };
  const sim::SimConfig config{.processors = 64, .quantum_length = 200};
  const auto fixed = core::run_set(core::abg_spec(), to_subs(), config);
  const auto tuned = core::run_set(core::abg_auto_spec(), to_subs(), config);
  ASSERT_TRUE(sim::validate_result(tuned, 64).empty());
  EXPECT_LT(static_cast<double>(tuned.makespan),
            1.4 * static_cast<double>(fixed.makespan));
}

}  // namespace
}  // namespace abg
