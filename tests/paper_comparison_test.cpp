// The paper's headline empirical claims (Section 7), asserted with
// conservative margins so the suite is robust to workload randomness:
//   * single jobs: ABG runs faster and wastes far fewer processor cycles
//     than A-Greedy (paper: ~20% time, ~50% waste on average);
//   * job sets at light load: ABG's makespan and mean response time are no
//     worse than A-Greedy's (paper: 10-15% better);
//   * both schedulers approach optimal running time for individual jobs
//     (running time close to the critical path in an unconstrained
//     environment).
// Exact paper-style series are produced by the bench/ harnesses.
#include <gtest/gtest.h>

#include <vector>

#include "core/run.hpp"
#include "sim/quantum_engine.hpp"
#include "util/stats.hpp"
#include "workload/fork_join.hpp"
#include "workload/job_set.hpp"

namespace abg {
namespace {

constexpr dag::Steps kQuantum = 200;
constexpr int kProcessors = 128;

struct SingleJobOutcome {
  double time_ratio_agreedy_over_abg = 0.0;
  double waste_abg_per_work = 0.0;
  double waste_agreedy_per_work = 0.0;
  double abg_time_over_cpl = 0.0;
};

SingleJobOutcome compare_on_job(std::uint64_t seed, double transition) {
  util::Rng rng(seed);
  const auto job = workload::make_fork_join_job(
      rng, workload::figure5_spec(transition, kQuantum));
  const sim::SingleJobConfig config{.processors = kProcessors,
                                    .quantum_length = kQuantum};

  const auto abg_job = job->fresh_clone();
  const sim::JobTrace abg_trace =
      core::run_single(core::abg_spec(), *abg_job, config);
  const auto ag_job = job->fresh_clone();
  const sim::JobTrace ag_trace =
      core::run_single(core::a_greedy_spec(), *ag_job, config);

  SingleJobOutcome out;
  out.time_ratio_agreedy_over_abg =
      static_cast<double>(ag_trace.response_time()) /
      static_cast<double>(abg_trace.response_time());
  out.waste_abg_per_work = static_cast<double>(abg_trace.total_waste()) /
                           static_cast<double>(abg_trace.work);
  out.waste_agreedy_per_work = static_cast<double>(ag_trace.total_waste()) /
                               static_cast<double>(ag_trace.work);
  out.abg_time_over_cpl = static_cast<double>(abg_trace.response_time()) /
                          static_cast<double>(abg_trace.critical_path);
  return out;
}

TEST(PaperComparison, SingleJobsAbgBeatsAGreedy) {
  util::RunningStats time_ratio;
  util::RunningStats abg_waste;
  util::RunningStats ag_waste;
  util::RunningStats abg_optimality;
  for (const double transition : {10.0, 30.0, 60.0}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const SingleJobOutcome out =
          compare_on_job(seed * 7919, transition);
      time_ratio.add(out.time_ratio_agreedy_over_abg);
      abg_waste.add(out.waste_abg_per_work);
      ag_waste.add(out.waste_agreedy_per_work);
      abg_optimality.add(out.abg_time_over_cpl);
    }
  }
  // ABG is at least as fast on average (paper: ~20% faster).
  EXPECT_GT(time_ratio.mean(), 1.0);
  // ABG wastes substantially less than A-Greedy (paper: ~50% reduction).
  EXPECT_LT(abg_waste.mean(), 0.75 * ag_waste.mean());
  // Near-linear speedup: in the unconstrained environment the critical
  // path is the optimal running time; ABG stays within 2x of it.
  EXPECT_LT(abg_optimality.mean(), 2.0);
  EXPECT_GE(abg_optimality.min(), 1.0);  // nobody beats the critical path
}

TEST(PaperComparison, AbgNeverSlowerThanCriticalPathBound) {
  // Sanity on both schedulers: running time >= T_inf always (unit tasks).
  for (std::uint64_t seed : {11u, 22u}) {
    util::Rng rng(seed);
    const auto job = workload::make_fork_join_job(
        rng, workload::figure5_spec(20.0, kQuantum));
    const sim::SingleJobConfig config{.processors = kProcessors,
                                      .quantum_length = kQuantum};
    for (const auto& spec : {core::abg_spec(), core::a_greedy_spec()}) {
      const auto clone = job->fresh_clone();
      const sim::JobTrace trace = core::run_single(spec, *clone, config);
      EXPECT_GE(trace.response_time(), trace.critical_path) << spec.name;
      EXPECT_EQ(trace.work, job->total_work());
    }
  }
}

TEST(PaperComparison, LightlyLoadedJobSetsAbgCompetitive) {
  // Paper Figure 6 at light load: ABG outperforms A-Greedy by 10-15% in
  // makespan and mean response time.  Assert the direction with margin:
  // ABG is at worst 3% slower, and on average at least as good.
  util::RunningStats makespan_ratio;
  util::RunningStats response_ratio;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    util::Rng rng(seed * 104729);
    workload::JobSetSpec spec;
    spec.load = 0.5;
    spec.processors = kProcessors;
    spec.min_transition_factor = 2.0;
    spec.max_transition_factor = 50.0;
    spec.phase_pairs = 3;
    spec.min_phase_levels = kQuantum / 2;
    spec.max_phase_levels = 2 * kQuantum;
    auto generated = workload::make_job_set(rng, spec);

    auto to_submissions = [](const std::vector<workload::GeneratedJob>& gs) {
      std::vector<sim::JobSubmission> subs;
      for (const auto& g : gs) {
        sim::JobSubmission s;
        s.job = g.job->fresh_clone();
        subs.push_back(std::move(s));
      }
      return subs;
    };
    const sim::SimConfig config{.processors = kProcessors,
                                .quantum_length = kQuantum};
    const auto abg = core::run_set(core::abg_spec(),
                                   to_submissions(generated), config);
    const auto ag = core::run_set(core::a_greedy_spec(),
                                  to_submissions(generated), config);
    makespan_ratio.add(static_cast<double>(ag.makespan) /
                       static_cast<double>(abg.makespan));
    response_ratio.add(ag.mean_response_time / abg.mean_response_time);
  }
  EXPECT_GE(makespan_ratio.mean(), 1.0);
  EXPECT_GE(response_ratio.mean(), 1.0);
  EXPECT_GE(makespan_ratio.min(), 0.97);
  EXPECT_GE(response_ratio.min(), 0.97);
}

TEST(PaperComparison, HeavyLoadAdvantageDiminishes) {
  // Paper: under heavy load requests are deprived and the two schedulers
  // perform comparably.  Assert the ratio is close to 1.
  util::Rng rng(31337);
  workload::JobSetSpec spec;
  spec.load = 4.0;
  spec.processors = 64;
  spec.min_transition_factor = 2.0;
  spec.max_transition_factor = 50.0;
  spec.phase_pairs = 2;
  spec.min_phase_levels = kQuantum / 2;
  spec.max_phase_levels = 2 * kQuantum;
  auto generated = workload::make_job_set(rng, spec);

  auto to_submissions = [&generated] {
    std::vector<sim::JobSubmission> subs;
    for (const auto& g : generated) {
      sim::JobSubmission s;
      s.job = g.job->fresh_clone();
      subs.push_back(std::move(s));
    }
    return subs;
  };
  const sim::SimConfig config{.processors = 64, .quantum_length = kQuantum};
  const auto abg = core::run_set(core::abg_spec(), to_submissions(), config);
  const auto ag =
      core::run_set(core::a_greedy_spec(), to_submissions(), config);
  const double ratio = static_cast<double>(ag.makespan) /
                       static_cast<double>(abg.makespan);
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.6);
}

}  // namespace
}  // namespace abg
