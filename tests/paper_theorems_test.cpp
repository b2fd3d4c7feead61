// Empirical verification of the paper's algorithmic results on actual
// scheduled runs: Inequality 5 (α + β >= 1 per full quantum, up to the
// 1/L fractional-level slack), Lemma 2 (request/parallelism ratio bounds),
// Theorem 3 (running time under trim analysis), Theorem 4 (waste) and
// Theorem 5 (makespan / mean response time under DEQ).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "alloc/availability_profile.hpp"
#include "core/run.hpp"
#include "metrics/bounds.hpp"
#include "metrics/lower_bounds.hpp"
#include "metrics/parallelism_stats.hpp"
#include "metrics/trim.hpp"
#include "sim/quantum_engine.hpp"
#include "workload/fork_join.hpp"
#include "workload/job_set.hpp"

namespace abg {
namespace {

constexpr dag::Steps kQuantum = 200;
constexpr int kProcessors = 128;
// Small convergence rate so r < 1/C_L holds for the generated workloads.
constexpr double kRate = 0.05;

sim::JobTrace run_abg_on(dag::Job& job, alloc::Allocator* allocator = nullptr) {
  return core::run_single(
      core::abg_spec(core::AbgConfig{.convergence_rate = kRate}), job,
      sim::SingleJobConfig{.processors = kProcessors,
                           .quantum_length = kQuantum},
      allocator);
}

class PaperTheorems : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PaperTheorems, Inequality5GreedyEfficiencyBound) {
  util::Rng rng(GetParam());
  const auto job =
      workload::make_fork_join_job(rng, workload::figure5_spec(8.0, kQuantum));
  const sim::JobTrace trace = run_abg_on(*job);
  ASSERT_TRUE(trace.finished());
  const double slack = 1.0 / static_cast<double>(kQuantum);
  for (const auto& q : trace.quanta) {
    if (q.full) {
      EXPECT_GE(q.work_efficiency() + q.cpl_efficiency(),
                1.0 - slack - 1e-9)
          << "quantum " << q.index;
    }
  }
}

TEST_P(PaperTheorems, Lemma2RequestBounds) {
  util::Rng rng(GetParam() ^ 0x1111ULL);
  const auto job =
      workload::make_fork_join_job(rng, workload::figure5_spec(4.0, kQuantum));
  const sim::JobTrace trace = run_abg_on(*job);
  ASSERT_TRUE(trace.finished());

  const double transition = metrics::empirical_transition_factor(trace);
  ASSERT_LT(kRate, 1.0 / transition)
      << "workload violates the r < 1/C_L precondition";
  const metrics::Lemma2Bounds bounds =
      metrics::lemma2_bounds(transition, kRate);

  for (const auto& q : trace.quanta) {
    if (!q.full || q.cpl <= 0.0) {
      continue;
    }
    const double parallelism = q.average_parallelism();
    // +/- 1 allows for the integer rounding of requests (the paper's d(q)
    // is real-valued).
    EXPECT_GE(q.request + 1.0, bounds.lower_ratio * parallelism)
        << "quantum " << q.index;
    EXPECT_LE(q.request - 1.0, bounds.upper_ratio * parallelism)
        << "quantum " << q.index;
  }
}

TEST_P(PaperTheorems, Theorem3RunningTime) {
  util::Rng rng(GetParam() ^ 0x2222ULL);
  const auto job =
      workload::make_fork_join_job(rng, workload::figure5_spec(6.0, kQuantum));
  const sim::JobTrace trace = run_abg_on(*job);
  ASSERT_TRUE(trace.finished());

  const double transition = metrics::empirical_transition_factor(trace);
  const double trim_steps =
      metrics::theorem3_trim_steps(trace.critical_path, transition, kRate,
                                   kQuantum);
  const double trimmed = metrics::trimmed_availability(
      trace, static_cast<dag::Steps>(std::ceil(trim_steps)));
  const double bound = metrics::theorem3_time_bound(
      trace.work, trace.critical_path, transition, kRate, trimmed, kQuantum);
  // 5% slack for the fractional-level measurement (footnote: α + β >= 1
  // only up to 1/L).
  EXPECT_LE(static_cast<double>(trace.response_time()), 1.05 * bound);
}

TEST_P(PaperTheorems, Theorem3UnderAdversarialAvailability) {
  // An adversarial allocator that floods the job with processors during
  // low parallelism and starves it during high parallelism.  The trimmed
  // availability absorbs the adversary; the bound must still hold.
  util::Rng rng(GetParam() ^ 0x3333ULL);
  const auto job =
      workload::make_fork_join_job(rng, workload::figure5_spec(6.0, kQuantum));
  util::Rng pattern = rng.split();
  std::vector<int> availability;
  for (int q = 0; q < 400; ++q) {
    availability.push_back(
        static_cast<int>(pattern.uniform_int(1, kProcessors)));
  }
  alloc::AvailabilityProfile allocator(availability);
  const sim::JobTrace trace = run_abg_on(*job, &allocator);
  ASSERT_TRUE(trace.finished());

  const double transition = metrics::empirical_transition_factor(trace);
  const double trim_steps = metrics::theorem3_trim_steps(
      trace.critical_path, transition, kRate, kQuantum);
  const double trimmed = metrics::trimmed_availability(
      trace, static_cast<dag::Steps>(std::ceil(trim_steps)));
  const double bound = metrics::theorem3_time_bound(
      trace.work, trace.critical_path, transition, kRate, trimmed, kQuantum);
  EXPECT_LE(static_cast<double>(trace.response_time()), 1.05 * bound);
}

TEST_P(PaperTheorems, Theorem4Waste) {
  util::Rng rng(GetParam() ^ 0x4444ULL);
  const auto job =
      workload::make_fork_join_job(rng, workload::figure5_spec(4.0, kQuantum));
  const sim::JobTrace trace = run_abg_on(*job);
  ASSERT_TRUE(trace.finished());

  const double transition = metrics::empirical_transition_factor(trace);
  ASSERT_LT(kRate, 1.0 / transition);
  const double bound = metrics::theorem4_waste_bound(
      trace.work, transition, kRate, kProcessors, kQuantum);
  EXPECT_LE(static_cast<double>(trace.total_waste()), 1.05 * bound);
}

TEST_P(PaperTheorems, Theorem5MakespanAndResponse) {
  util::Rng rng(GetParam() ^ 0x5555ULL);
  workload::JobSetSpec spec;
  spec.load = 1.5;
  spec.processors = 64;
  spec.min_transition_factor = 2.0;
  spec.max_transition_factor = 6.0;
  spec.phase_pairs = 3;
  spec.min_phase_levels = kQuantum / 2;
  spec.max_phase_levels = 2 * kQuantum;
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
  const sim::SimResult result = core::run_set(
      core::abg_spec(core::AbgConfig{.convergence_rate = kRate}),
      std::move(subs),
      sim::SimConfig{.processors = 64, .quantum_length = kQuantum});

  double max_transition = 1.0;
  for (const auto& t : result.jobs) {
    max_transition =
        std::max(max_transition, metrics::empirical_transition_factor(t));
  }
  ASSERT_LT(kRate, 1.0 / max_transition)
      << "workload violates the r < 1/C_L precondition";

  const double makespan_star = metrics::makespan_lower_bound(summaries, 64);
  const double response_star = metrics::response_lower_bound(summaries, 64);
  const double makespan_bound = metrics::theorem5_makespan_bound(
      makespan_star, max_transition, kRate, kQuantum, summaries.size());
  const double response_bound = metrics::theorem5_response_bound(
      response_star, max_transition, kRate, kQuantum, summaries.size());

  EXPECT_LE(static_cast<double>(result.makespan), 1.05 * makespan_bound);
  EXPECT_LE(result.mean_response_time, 1.05 * response_bound);
  // ... and the lower bounds really are lower bounds:
  EXPECT_GE(static_cast<double>(result.makespan), makespan_star - 1e-9);
  EXPECT_GE(result.mean_response_time, response_star - 1e-9);
}

// Lemma 2 and Theorem 4 swept across convergence rates: the bounds must
// hold for every r satisfying r < 1/C_L, not just one operating point.
class RateSweep
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(RateSweep, Lemma2AndTheorem4HoldAcrossRates) {
  const double rate = std::get<0>(GetParam());
  const std::uint64_t seed = std::get<1>(GetParam());
  util::Rng rng(seed);
  const auto job =
      workload::make_fork_join_job(rng, workload::figure5_spec(4.0, kQuantum));
  const sim::JobTrace trace = core::run_single(
      core::abg_spec(core::AbgConfig{.convergence_rate = rate}), *job,
      sim::SingleJobConfig{.processors = kProcessors,
                           .quantum_length = kQuantum});
  ASSERT_TRUE(trace.finished());

  const double transition = metrics::empirical_transition_factor(trace);
  if (!(rate < 1.0 / transition)) {
    GTEST_SKIP() << "r >= 1/C_L for this draw; bounds not defined";
  }
  const metrics::Lemma2Bounds bounds =
      metrics::lemma2_bounds(transition, rate);
  for (const auto& q : trace.quanta) {
    if (!q.full || q.cpl <= 0.0) {
      continue;
    }
    const double parallelism = q.average_parallelism();
    EXPECT_GE(q.request + 1.0, bounds.lower_ratio * parallelism);
    EXPECT_LE(q.request - 1.0, bounds.upper_ratio * parallelism);
  }
  const double waste_bound = metrics::theorem4_waste_bound(
      trace.work, transition, rate, kProcessors, kQuantum);
  EXPECT_LE(static_cast<double>(trace.total_waste()), 1.05 * waste_bound);
}

INSTANTIATE_TEST_SUITE_P(
    Rates, RateSweep,
    ::testing::Combine(::testing::Values(0.0, 0.02, 0.08, 0.15),
                       ::testing::Values(11u, 22u, 33u)),
    [](const auto& param_info) {
      const double rate = std::get<0>(param_info.param);
      const std::uint64_t seed = std::get<1>(param_info.param);
      // Appended piecewise: GCC 12 flags "R" + std::to_string(...) with a
      // false -Wrestrict positive.
      std::string name = "R";
      name += std::to_string(static_cast<int>(rate * 100));
      name += "Seed";
      name += std::to_string(seed);
      return name;
    });

INSTANTIATE_TEST_SUITE_P(Seeds, PaperTheorems,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u),
                         [](const auto& param_info) {
                           return "Seed" + std::to_string(param_info.param);
                         });

}  // namespace
}  // namespace abg
