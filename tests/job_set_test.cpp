#include "workload/job_set.hpp"

#include <gtest/gtest.h>

namespace abg::workload {
namespace {

JobSetSpec small_spec(double load) {
  JobSetSpec spec;
  spec.load = load;
  spec.processors = 32;
  spec.min_transition_factor = 2.0;
  spec.max_transition_factor = 20.0;
  spec.phase_pairs = 2;
  spec.min_phase_levels = 20;
  spec.max_phase_levels = 60;
  return spec;
}

TEST(JobSet, AlwaysAtLeastOneJob) {
  util::Rng rng(1);
  const auto jobs = make_job_set(rng, small_spec(0.001));
  EXPECT_GE(jobs.size(), 1u);
}

TEST(JobSet, NeverMoreJobsThanProcessors) {
  util::Rng rng(2);
  const auto jobs = make_job_set(rng, small_spec(100.0));
  EXPECT_LE(jobs.size(), 32u);
}

TEST(JobSet, RealizedLoadReachesTarget) {
  util::Rng rng(3);
  for (const double load : {0.5, 1.0, 2.0}) {
    const auto jobs = make_job_set(rng, small_spec(load));
    const double realized = realized_load(jobs, 32);
    // The generator stops at the first job crossing the target, so realized
    // load is at least the target (unless capped by |J| <= P).
    if (jobs.size() < 32u) {
      EXPECT_GE(realized, load);
    }
    // ... and overshoots by at most one job's parallelism.
    EXPECT_LE(realized, load + jobs.back().average_parallelism / 32.0 + 1e-9);
  }
}

TEST(JobSet, TransitionFactorsWithinRange) {
  util::Rng rng(4);
  const auto jobs = make_job_set(rng, small_spec(3.0));
  for (const GeneratedJob& j : jobs) {
    EXPECT_GE(j.target_transition_factor, 2.0);
    EXPECT_LE(j.target_transition_factor, 20.0);
  }
}

TEST(JobSet, AverageParallelismMatchesJob) {
  util::Rng rng(5);
  const auto jobs = make_job_set(rng, small_spec(1.0));
  for (const GeneratedJob& j : jobs) {
    const double expected =
        static_cast<double>(j.job->total_work()) /
        static_cast<double>(j.job->critical_path());
    EXPECT_DOUBLE_EQ(j.average_parallelism, expected);
  }
}

TEST(JobSet, Deterministic) {
  util::Rng a(6);
  util::Rng b(6);
  const auto ja = make_job_set(a, small_spec(1.5));
  const auto jb = make_job_set(b, small_spec(1.5));
  ASSERT_EQ(ja.size(), jb.size());
  for (std::size_t i = 0; i < ja.size(); ++i) {
    EXPECT_EQ(ja[i].job->runs(), jb[i].job->runs());
  }
}

TEST(JobSet, Validation) {
  util::Rng rng(7);
  JobSetSpec spec = small_spec(1.0);
  spec.load = 0.0;
  EXPECT_THROW(make_job_set(rng, spec), std::invalid_argument);
  spec = small_spec(1.0);
  spec.processors = 0;
  EXPECT_THROW(make_job_set(rng, spec), std::invalid_argument);
  spec = small_spec(1.0);
  spec.min_transition_factor = 0.5;
  EXPECT_THROW(make_job_set(rng, spec), std::invalid_argument);
  spec = small_spec(1.0);
  spec.max_transition_factor = 1.0;
  EXPECT_THROW(make_job_set(rng, spec), std::invalid_argument);
  EXPECT_THROW(realized_load({}, 0), std::invalid_argument);
}

}  // namespace
}  // namespace abg::workload
