// Generator semantics: explicit replay, determinism, machine-relative
// defaults, and the open-system job factory.
#include "scenario/generators.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/spec.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace abg::scenario {
namespace {

ScenarioSpec parse(const std::string& text) {
  return ScenarioSpec::from_json(util::Json::parse(text));
}

std::int64_t profile_work(const std::vector<dag::LevelRun>& runs) {
  return std::accumulate(runs.begin(), runs.end(), std::int64_t{0},
                         [](std::int64_t sum, const dag::LevelRun& run) {
                           return sum + run.width * run.levels;
                         });
}

const char* kExplicitDoc = R"({
  "name": "explicit-three",
  "generator": "explicit",
  "params": {"jobs": [
    {"release": 0, "phases": [[8, 400], [1, 100], [16, 300]]},
    {"release": 250, "phases": [[4, 600]]},
    {"release": 800, "phases": [[32, 200], [2, 500]]}
  ]}
})";

TEST(ScenarioGenerators, ExplicitJobsReplayExactly) {
  const ScenarioSpec spec = parse(kExplicitDoc);
  util::Rng rng(7);
  const auto jobs = generate_jobs(spec, rng, 128, 1000);
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0].release_step, 0);
  EXPECT_EQ(jobs[1].release_step, 250);
  EXPECT_EQ(jobs[2].release_step, 800);
  // Work is the literal sum of width * levels per phase.
  EXPECT_EQ(jobs[0].job->total_work(), 8 * 400 + 1 * 100 + 16 * 300);
  EXPECT_EQ(jobs[1].job->total_work(), 4 * 600);
  EXPECT_EQ(jobs[2].job->total_work(), 32 * 200 + 2 * 500);
}

TEST(ScenarioGenerators, ExplicitIgnoresSeedEntirely) {
  const ScenarioSpec spec = parse(kExplicitDoc);
  util::Rng a(1);
  util::Rng b(999);
  const auto pa = sample_profile(spec, a, 128, 1000, 1.0, 0);
  const auto pb = sample_profile(spec, b, 128, 1000, 1.0, 0);
  EXPECT_EQ(pa, pb);
  // job_index wraps modulo the literal list.
  const auto p3 = sample_profile(spec, a, 128, 1000, 1.0, 3);
  EXPECT_EQ(p3, pa);
}

TEST(ScenarioGenerators, SampleProfileIsSeedDeterministic) {
  const ScenarioSpec spec = parse(R"({
    "name": "mp", "generator": "multiphase", "jobs": 4,
    "params": {"phases": [{"width": [2, 16], "levels": [50, 200]},
                          {"width": 1, "levels": [10, 40]}]}
  })");
  util::Rng a(42);
  util::Rng b(42);
  EXPECT_EQ(sample_profile(spec, a, 64, 1000, 1.0, 0),
            sample_profile(spec, b, 64, 1000, 1.0, 0));
  util::Rng c(43);
  util::Rng d(42);
  // A different seed draws a different job (with overwhelming probability
  // for these ranges; pinned here as a regression canary).
  EXPECT_NE(sample_profile(spec, c, 64, 1000, 1.0, 0),
            sample_profile(spec, d, 64, 1000, 1.0, 0));
}

TEST(ScenarioGenerators, OscillatorResolvesMachineRelativeDefaults) {
  const ScenarioSpec spec = parse(R"({
    "name": "osc", "generator": "oscillator", "jobs": 1,
    "params": {"low": 1, "high": 0, "half_period": 0, "periods": 2}
  })");
  util::Rng rng(5);
  // high = 0 -> P, half_period = 0 -> L: two periods of (L low, L high).
  EXPECT_EQ(sample_profile(spec, rng, 32, 500, 1.0, 0),
            (std::vector<dag::LevelRun>{{1, 500}, {32, 500}, {1, 500},
                                        {32, 500}}));
}

TEST(ScenarioGenerators, SublinearMaxWidthZeroCapsAtMachineSize) {
  const ScenarioSpec spec = parse(R"({
    "name": "sub", "generator": "sublinear", "jobs": 1,
    "params": {"classes": [{"alpha": 0.5, "work": 5000, "max_width": 0}]}
  })");
  util::Rng rng(11);
  const auto runs = sample_profile(spec, rng, 16, 1000, 1.0, 0);
  ASSERT_FALSE(runs.empty());
  EXPECT_EQ(std::max_element(runs.begin(), runs.end(),
                             [](const dag::LevelRun& a,
                                const dag::LevelRun& b) {
                               return a.width < b.width;
                             })
                ->width,
            16);
  // The staircase preserves the work budget to within rounding.
  EXPECT_GE(profile_work(runs), 5000 / 2);
}

TEST(ScenarioGenerators, ReleaseSchedulesShapeReleaseSteps) {
  const char* base = R"({
    "name": "rel", "generator": "multiphase", "jobs": 5,
    "release": {"schedule": "%s", "gap": 100},
    "params": {"phases": [{"width": 2, "levels": 10}]}
  })";
  char staggered_doc[512];
  std::snprintf(staggered_doc, sizeof(staggered_doc), base, "staggered");
  util::Rng rng(3);
  const auto staggered =
      generate_jobs(parse(staggered_doc), rng, 8, 100);
  ASSERT_EQ(staggered.size(), 5u);
  for (std::size_t i = 0; i < staggered.size(); ++i) {
    EXPECT_EQ(staggered[i].release_step,
              static_cast<dag::Steps>(100 * i));
  }

  char batched_doc[512];
  std::snprintf(batched_doc, sizeof(batched_doc), base, "batched");
  util::Rng rng2(3);
  const auto batched = generate_jobs(parse(batched_doc), rng2, 8, 100);
  for (const auto& submission : batched) {
    EXPECT_EQ(submission.release_step, 0);
  }

  char poisson_doc[512];
  std::snprintf(poisson_doc, sizeof(poisson_doc), base, "poisson");
  util::Rng rng3(3);
  const auto poisson = generate_jobs(parse(poisson_doc), rng3, 8, 100);
  for (std::size_t i = 1; i < poisson.size(); ++i) {
    EXPECT_GE(poisson[i].release_step, poisson[i - 1].release_step);
  }
}

TEST(ScenarioGenerators, OpenFactoryBuildsJobsAndScalesWork) {
  const ScenarioSpec spec = parse(kExplicitDoc);
  const open::JobFactory factory = make_open_factory(spec, 128, 1000);
  util::Rng rng(9);
  open::Arrival arrival;
  const auto job = factory(rng, arrival);
  ASSERT_NE(job, nullptr);
  EXPECT_GT(job->total_work(), 0);
}

TEST(ScenarioGenerators, RejectsDegenerateMachine) {
  const ScenarioSpec spec = parse(kExplicitDoc);
  util::Rng rng(1);
  EXPECT_THROW(sample_profile(spec, rng, 0, 1000, 1.0, 0),
               std::invalid_argument);
  EXPECT_THROW(sample_profile(spec, rng, 8, 0, 1.0, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace abg::scenario
