// The skip-ahead helpers (sim/quantum_eval.hpp): steps_to_finish must
// agree with ProfileJob's own executor — and, transitively, with the
// stepwise base-class loop ProfileJob is property-tested against — and
// run_allotted_quantum must stamp the engines' shared convention.  Plus
// the overflow guards on the engines' cycle accumulators: near-limit
// values must throw std::overflow_error instead of wrapping.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "dag/profile_job.hpp"
#include "sched/execution_policy.hpp"
#include "sim/job_runtime.hpp"
#include "sim/quantum_eval.hpp"
#include "util/rng.hpp"
#include "workload/profiles.hpp"

namespace abg::sim::quantum_eval {
namespace {

std::vector<dag::TaskCount> random_profile(util::Rng& rng) {
  const auto levels = static_cast<std::size_t>(rng.uniform_int(1, 12));
  std::vector<dag::TaskCount> widths(levels);
  for (auto& w : widths) {
    w = rng.uniform_int(1, 40);
  }
  return widths;
}

/// steps_to_finish is exact: running that many steps finishes the job,
/// one fewer does not.  The oracle is ProfileJob's own executor, run on
/// fresh clones so the planner's view stays at the start.
TEST(QuantumEvalTest, StepsToFinishIsExact) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    util::Rng rng(util::Rng::derive_seed(992, seed));
    dag::ProfileJob job(random_profile(rng));
    const int procs = static_cast<int>(rng.uniform_int(1, 8));
    const dag::Steps cap = 10000;
    const dag::Steps fin = steps_to_finish(job.phase_view(), procs, cap);
    ASSERT_LE(fin, cap) << "seed " << seed;
    if (fin > 1) {
      const dag::QuantumExecution before = job.fresh_clone()->run_quantum(
          procs, fin - 1, dag::PickOrder::kBreadthFirst);
      ASSERT_FALSE(before.finished) << "seed " << seed;
    }
    const dag::QuantumExecution at = job.fresh_clone()->run_quantum(
        procs, fin, dag::PickOrder::kBreadthFirst);
    ASSERT_TRUE(at.finished) << "seed " << seed;
    ASSERT_EQ(at.steps, fin) << "seed " << seed;
  }
}

TEST(QuantumEvalTest, StepsToFinishCapAndEdgeCases) {
  auto job = dag::ProfileJob::from_runs(
      workload::constant_profile(10, 4));  // 40 work
  // 10 steps at 1 proc per level: 40 total > cap 5 -> cap + 1.
  EXPECT_EQ(steps_to_finish(job.phase_view(), 1, 5), 6);
  // Zero allotment cannot finish.
  EXPECT_EQ(steps_to_finish(job.phase_view(), 0, 5), 6);
  // Finished job needs zero steps.
  dag::ProfileJob done(std::vector<dag::TaskCount>{});
  EXPECT_EQ(steps_to_finish(done.phase_view(), 3, 5), 0);
}

/// run_allotted_quantum: a penalty >= length voids the quantum (no
/// execution, all steps consumed), a partial penalty shortens it, and the
/// stamped fields follow the engines' shared convention.
TEST(QuantumEvalTest, RunAllottedQuantumStampsPenaltyAndAvailability) {
  sched::BGreedyExecution exec;
  auto job = dag::ProfileJob::from_runs(workload::constant_profile(8, 4));
  const sched::QuantumStats voided = run_allotted_quantum(
      job, exec, /*index=*/1, /*desire=*/3, /*allotment=*/2, /*length=*/10,
      /*penalty=*/10, /*leftover=*/5, /*start_step=*/70);
  EXPECT_EQ(voided.work, 0);
  EXPECT_EQ(voided.steps_used, 10);
  EXPECT_FALSE(voided.full);
  EXPECT_EQ(voided.available, 7);
  EXPECT_EQ(voided.start_step, 70);
  EXPECT_EQ(job.completed_work(), 0);

  const sched::QuantumStats partial = run_allotted_quantum(
      job, exec, 2, 3, 2, 10, /*penalty=*/4, 5, 80);
  EXPECT_EQ(partial.length, 10);
  EXPECT_EQ(partial.steps_used, 4 + 6);
  EXPECT_EQ(partial.work, 12);  // 6 steps at 2 procs, no barrier stall
  EXPECT_FALSE(partial.full);   // migration steps did no work
}

TEST(CycleGuardTest, AddDetectsOverflow) {
  dag::TaskCount acc = std::numeric_limits<dag::TaskCount>::max() - 10;
  add_cycles_checked(acc, 10, "test");
  EXPECT_EQ(acc, std::numeric_limits<dag::TaskCount>::max());
  EXPECT_THROW(add_cycles_checked(acc, 1, "test"), std::overflow_error);
  // The accumulator is untouched on failure.
  EXPECT_EQ(acc, std::numeric_limits<dag::TaskCount>::max());
}

TEST(CycleGuardTest, MulDetectsOverflow) {
  const dag::TaskCount big = std::numeric_limits<dag::TaskCount>::max() / 2;
  EXPECT_EQ(mul_cycles_checked(big, 2, "test"), big * 2);
  EXPECT_THROW(mul_cycles_checked(big, 3, "test"), std::overflow_error);
  EXPECT_THROW(
      mul_cycles_checked(std::numeric_limits<dag::TaskCount>::max(), 2,
                         "test"),
      std::overflow_error);
}

TEST(CycleGuardTest, NearLimitValuesRoundTrip) {
  // Values just under the threshold must pass untouched — the guard adds
  // no rounding or saturation.
  const dag::TaskCount limit = std::numeric_limits<dag::TaskCount>::max();
  dag::TaskCount acc = limit - 1;
  add_cycles_checked(acc, 1, "test");
  EXPECT_EQ(acc, limit);
  EXPECT_EQ(mul_cycles_checked(limit, 1, "test"), limit);
  EXPECT_EQ(mul_cycles_checked(0, limit, "test"), 0);
}

TEST(CycleGuardTest, ErrorMessageCarriesContext) {
  dag::TaskCount acc = std::numeric_limits<dag::TaskCount>::max();
  try {
    add_cycles_checked(acc, 1, "simulate_job_set_async");
    FAIL() << "expected overflow_error";
  } catch (const std::overflow_error& e) {
    EXPECT_NE(std::string(e.what()).find("simulate_job_set_async"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace abg::sim::quantum_eval
