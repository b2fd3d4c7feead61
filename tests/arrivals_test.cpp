#include "workload/arrivals.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/run.hpp"
#include "dag/profile_job.hpp"
#include "metrics/lower_bounds.hpp"
#include "workload/profiles.hpp"

namespace abg::workload {
namespace {

TEST(Arrivals, StaggeredEvenlySpaced) {
  const auto releases = staggered_releases(4, 100);
  EXPECT_EQ(releases, (std::vector<dag::Steps>{0, 100, 200, 300}));
}

TEST(Arrivals, StaggeredZeroGapIsBatched) {
  EXPECT_EQ(staggered_releases(3, 0), std::vector<dag::Steps>(3, 0));
}

TEST(Arrivals, StaggeredRejectsNegativeGap) {
  EXPECT_THROW(staggered_releases(3, -1), std::invalid_argument);
}

TEST(Arrivals, StaggeredRejectsOverflowingSchedule) {
  // (jobs - 1) * gap must fit in the step counter; the last release of
  // this schedule would wrap to a negative step.
  const dag::Steps huge = std::numeric_limits<dag::Steps>::max() / 2 + 1;
  EXPECT_THROW(staggered_releases(3, huge), std::invalid_argument);
  // The boundary itself is fine: one job never multiplies the gap.
  EXPECT_EQ(staggered_releases(1, huge), (std::vector<dag::Steps>{0}));
}

TEST(Arrivals, PoissonMonotoneFromZero) {
  util::Rng rng(5);
  const auto releases = poisson_releases(rng, 50, 200.0);
  ASSERT_EQ(releases.size(), 50u);
  EXPECT_EQ(releases.front(), 0);
  EXPECT_TRUE(std::is_sorted(releases.begin(), releases.end()));
}

TEST(Arrivals, PoissonMeanGapRoughlyCorrect) {
  util::Rng rng(9);
  const auto releases = poisson_releases(rng, 2000, 100.0);
  const double mean_gap =
      static_cast<double>(releases.back()) /
      static_cast<double>(releases.size() - 1);
  EXPECT_NEAR(mean_gap, 100.0, 15.0);
}

TEST(Arrivals, PoissonDeterministic) {
  util::Rng a(3);
  util::Rng b(3);
  EXPECT_EQ(poisson_releases(a, 20, 50.0), poisson_releases(b, 20, 50.0));
}

TEST(Arrivals, PoissonRejectsBadMean) {
  util::Rng rng(1);
  EXPECT_THROW(poisson_releases(rng, 3, 0.0), std::invalid_argument);
  EXPECT_THROW(poisson_releases(rng, 3, -1.0), std::invalid_argument);
  // Sub-step means would silently degenerate to batched release (gaps are
  // whole steps), and huge means would overflow the truncation bound.
  EXPECT_THROW(poisson_releases(rng, 3, 0.5), std::invalid_argument);
  EXPECT_THROW(poisson_releases(rng, 3, 2e12), std::invalid_argument);
  EXPECT_NO_THROW(poisson_releases(rng, 3, 1.0));
}

TEST(Arrivals, StaggeredJobsFinishInArrivalFriendlyOrder) {
  // End-to-end: identical jobs released far apart complete in release
  // order, and each sees a lightly loaded machine.
  std::vector<sim::JobSubmission> subs;
  const auto releases = staggered_releases(3, 1000);
  for (std::size_t i = 0; i < 3; ++i) {
    sim::JobSubmission s;
    s.job = std::make_unique<dag::ProfileJob>(
        dag::ProfileJob::from_runs(constant_profile(4, 200)));
    s.release_step = releases[i];
    subs.push_back(std::move(s));
  }
  const auto result = core::run_set(
      core::abg_spec(), std::move(subs),
      sim::SimConfig{.processors = 32, .quantum_length = 50});
  EXPECT_LT(result.jobs[0].completion_step, result.jobs[1].completion_step);
  EXPECT_LT(result.jobs[1].completion_step, result.jobs[2].completion_step);
  for (const auto& t : result.jobs) {
    // Far-apart releases: each job runs essentially alone.
    EXPECT_LE(t.response_time(), 3 * t.critical_path);
  }
  // The makespan lower bound with releases is respected.
  std::vector<metrics::JobSummary> summaries;
  for (std::size_t i = 0; i < 3; ++i) {
    summaries.push_back(metrics::JobSummary{
        result.jobs[i].work, result.jobs[i].critical_path, releases[i]});
  }
  EXPECT_GE(static_cast<double>(result.makespan),
            metrics::makespan_lower_bound(summaries, 32));
}

}  // namespace
}  // namespace abg::workload
