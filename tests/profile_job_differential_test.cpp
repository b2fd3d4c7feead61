// Differential suite for ProfileJob's closed-form executor: on random
// phase lists (adjacent equal widths, one-level runs, allotments below,
// at and above the width, zero allotments, budgets that end mid-level or
// exactly at the end of a run) run_quantum must match the Job base-class
// unit-step loop field for field, with cpl and level_progress() equal bit
// for bit, and quantum_eval::steps_to_finish must match a brute-force
// count at caps on both sides of the finish.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "dag/profile_job.hpp"
#include "sim/quantum_eval.hpp"
#include "util/rng.hpp"

namespace abg::dag {
namespace {

/// A ProfileJob advanced only through step(): run_quantum is the Job
/// base-class unit-step loop.  Copyable, so a copy can probe the future.
class StepwiseProfileJob final : public Job {
 public:
  explicit StepwiseProfileJob(std::vector<TaskCount> widths)
      : widths_(std::move(widths)), inner_(widths_) {}

  bool finished() const override { return inner_.finished(); }
  TaskCount step(int procs, PickOrder order) override {
    return inner_.step(procs, order);
  }
  TaskCount total_work() const override { return inner_.total_work(); }
  Steps critical_path() const override { return inner_.critical_path(); }
  TaskCount completed_work() const override {
    return inner_.completed_work();
  }
  double level_progress() const override { return inner_.level_progress(); }
  TaskCount ready_count() const override { return inner_.ready_count(); }
  std::unique_ptr<Job> fresh_clone() const override {
    return std::make_unique<StepwiseProfileJob>(widths_);
  }

 private:
  std::vector<TaskCount> widths_;
  ProfileJob inner_;
};

struct Phase {
  TaskCount width;
  Steps levels;
};

/// 1..7 phases; a third repeat the previous width and a third are one
/// level long.
std::vector<Phase> random_phases(util::Rng& rng) {
  std::vector<Phase> phases(static_cast<std::size_t>(rng.uniform_int(1, 7)));
  for (std::size_t i = 0; i < phases.size(); ++i) {
    phases[i].width = i > 0 && rng.bernoulli(1.0 / 3.0)
                          ? phases[i - 1].width
                          : rng.uniform_int(1, 20);
    phases[i].levels = rng.bernoulli(1.0 / 3.0) ? 1 : rng.uniform_int(2, 25);
  }
  return phases;
}

std::vector<TaskCount> expand(const std::vector<Phase>& phases) {
  std::vector<TaskCount> widths;
  for (const Phase& p : phases) {
    widths.insert(widths.end(), static_cast<std::size_t>(p.levels), p.width);
  }
  return widths;
}

/// Absolute levels at which a maximal run of equal widths ends.
std::vector<Steps> run_ends(const std::vector<TaskCount>& widths) {
  std::vector<Steps> ends;
  for (std::size_t l = 0; l < widths.size(); ++l) {
    if (l + 1 == widths.size() || widths[l + 1] != widths[l]) {
      ends.push_back(static_cast<Steps>(l + 1));
    }
  }
  return ends;
}

/// Unit steps `job` needs at `procs` to complete every level before
/// `level_end`, counted on a copy.
Steps steps_until_level(StepwiseProfileJob job, int procs, Steps level_end) {
  Steps steps = 0;
  while (!job.finished() &&
         job.level_progress() < static_cast<double>(level_end)) {
    job.step(procs, PickOrder::kBreadthFirst);
    ++steps;
  }
  return steps;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(ProfileJobDifferential, RunQuantumMatchesUnitStepLoop) {
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    util::Rng rng(util::Rng::derive_seed(2208, seed));
    const std::vector<TaskCount> widths = expand(random_phases(rng));
    const std::vector<Steps> ends = run_ends(widths);
    ProfileJob fast(widths);
    StepwiseProfileJob slow(widths);
    ASSERT_EQ(fast.total_work(), slow.total_work());
    ASSERT_EQ(fast.critical_path(), static_cast<Steps>(widths.size()));
    for (int quantum = 0; quantum < 200 && !slow.finished(); ++quantum) {
      const TaskCount ready = slow.ready_count();
      int procs = 0;
      switch (rng.uniform_int(0, 4)) {
        case 0: procs = 0; break;
        case 1: procs = static_cast<int>(rng.uniform_int(1, ready)); break;
        case 2: procs = static_cast<int>(ready); break;
        default:
          procs = static_cast<int>(rng.uniform_int(ready, ready + 10));
      }
      Steps budget = rng.uniform_int(1, 40);
      if (procs > 0 && rng.bernoulli(0.5)) {
        // End exactly on the end of the current run, or one step short
        // of it (mid-level whenever the last level needs two steps).
        Steps run_end = ends.back();
        for (const Steps e : ends) {
          if (static_cast<double>(e) > slow.level_progress()) {
            run_end = e;
            break;
          }
        }
        const Steps to_end = steps_until_level(slow, procs, run_end);
        budget = rng.bernoulli(0.5) ? to_end : std::max<Steps>(1, to_end - 1);
      }
      const QuantumExecution qf =
          fast.run_quantum(procs, budget, PickOrder::kBreadthFirst);
      const QuantumExecution qs =
          slow.run_quantum(procs, budget, PickOrder::kBreadthFirst);
      ASSERT_EQ(qf.work, qs.work) << "seed " << seed << " quantum " << quantum;
      ASSERT_EQ(qf.steps, qs.steps) << "seed " << seed;
      ASSERT_EQ(qf.idle_steps, qs.idle_steps) << "seed " << seed;
      ASSERT_EQ(qf.finished, qs.finished) << "seed " << seed;
      ASSERT_EQ(bits(qf.cpl), bits(qs.cpl)) << "seed " << seed;
      ASSERT_EQ(bits(fast.level_progress()), bits(slow.level_progress()))
          << "seed " << seed;
      ASSERT_EQ(fast.completed_work(), slow.completed_work());
      ASSERT_EQ(fast.ready_count(), slow.ready_count());
      ASSERT_EQ(fast.finished(), slow.finished());
    }
  }
}

TEST(ProfileJobDifferential, StepsToFinishMatchesBruteForce) {
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    util::Rng rng(util::Rng::derive_seed(2209, seed));
    const std::vector<TaskCount> widths = expand(random_phases(rng));
    ProfileJob job(widths);
    StepwiseProfileJob probe(widths);
    while (!job.finished()) {
      const int procs = static_cast<int>(rng.uniform_int(1, 24));
      const Steps fin = steps_until_level(
          probe, procs, static_cast<Steps>(widths.size()));
      ASSERT_GE(fin, 1);
      const PhaseView view = job.phase_view();
      for (const Steps cap : {fin - 1, fin, fin + 1, fin + 100}) {
        const Steps expected = cap >= fin ? fin : cap + 1;
        ASSERT_EQ(sim::quantum_eval::steps_to_finish(view, procs, cap),
                  expected)
            << "seed " << seed << " procs " << procs << " cap " << cap;
      }
      ASSERT_EQ(sim::quantum_eval::steps_to_finish(view, 0, fin), fin + 1);
      // Move both to a random position, often mid-level.
      const Steps budget = rng.uniform_int(1, fin);
      job.run_quantum(procs, budget, PickOrder::kBreadthFirst);
      probe.run_quantum(procs, budget, PickOrder::kBreadthFirst);
      ASSERT_EQ(job.completed_work(), probe.completed_work());
    }
    EXPECT_EQ(sim::quantum_eval::steps_to_finish(job.phase_view(), 3, 0), 0);
  }
}

/// Cost follows runs, not levels: a 10^12-level job (8 TB as one width per
/// level) builds, plans and runs quanta at once, including one that ends
/// mid-level and one that crosses into the next run.
TEST(ProfileJobDifferential, TrillionLevelJobRunsInClosedForm) {
  constexpr Steps kLevels = 1'000'000'000'000;
  ProfileJob job = ProfileJob::from_runs({{3, kLevels}, {1, 2}});
  EXPECT_EQ(job.critical_path(), kLevels + 2);
  EXPECT_EQ(job.total_work(), 3 * kLevels + 2);
  // At two processors each width-3 level takes two steps.
  EXPECT_EQ(sim::quantum_eval::steps_to_finish(job.phase_view(), 2, kLevels),
            kLevels + 1);
  EXPECT_EQ(sim::quantum_eval::steps_to_finish(job.phase_view(), 2,
                                               3 * kLevels),
            2 * kLevels + 2);
  QuantumExecution q = job.run_quantum(2, kLevels + 1, PickOrder::kFifo);
  EXPECT_EQ(q.steps, kLevels + 1);
  EXPECT_EQ(q.work, 3 * (kLevels / 2) + 2);
  EXPECT_EQ(job.level_progress(),
            static_cast<double>(kLevels / 2) + (1.0 - 1.0 / 3.0));
  q = job.run_quantum(3, kLevels, PickOrder::kFifo);
  EXPECT_EQ(q.steps, kLevels / 2 + 2);
  EXPECT_TRUE(q.finished);
  EXPECT_EQ(job.completed_work(), job.total_work());
}

}  // namespace
}  // namespace abg::dag
