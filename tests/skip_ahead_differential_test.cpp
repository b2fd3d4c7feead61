// Differential suite for the skip-ahead engines: the stride-planned async
// driver (SimConfig::skip_ahead = true, the default) must produce traces
// BYTE-IDENTICAL to the unit-stride reference driver (skip_ahead = false)
// on randomized job sets across the whole feature matrix — quantum-length
// policies, reallocation overhead, admission caps, staggered releases and
// fault plans — and a job without a phase view must drop its batch to
// unit strides transparently.  "Byte identical" is checked on the
// serialized CSV traces (sim/trace_io.hpp), the same serialization the
// golden fixtures pin, plus the fault log of a faulted run.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "alloc/equipartition.hpp"
#include "dag/profile_job.hpp"
#include "fault/fault_plan.hpp"
#include "random_fault_plan.hpp"
#include "sched/a_control.hpp"
#include "sched/execution_policy.hpp"
#include "sched/quantum_length.hpp"
#include "sim/async_simulator.hpp"
#include "sim/simulator.hpp"
#include "sim/trace_io.hpp"
#include "util/rng.hpp"
#include "workload/profiles.hpp"

namespace abg::sim {
namespace {

/// A ProfileJob with its closed form hidden: no phase view, and the
/// generic stepwise run_quantum.  Behaviourally identical to the wrapped
/// profile, so it drives the async engine's unit strides with known-good
/// semantics.
class OpaqueProfileJob final : public dag::Job {
 public:
  explicit OpaqueProfileJob(std::vector<dag::TaskCount> widths)
      : widths_(std::move(widths)), inner_(widths_) {}

  bool finished() const override { return inner_.finished(); }
  dag::TaskCount step(int procs, dag::PickOrder order) override {
    return inner_.step(procs, order);
  }
  // run_quantum: the Job base-class unit-step loop.  phase_view: the null
  // default.  Both inherited on purpose.
  dag::TaskCount total_work() const override { return inner_.total_work(); }
  dag::Steps critical_path() const override {
    return inner_.critical_path();
  }
  dag::TaskCount completed_work() const override {
    return inner_.completed_work();
  }
  double level_progress() const override { return inner_.level_progress(); }
  dag::TaskCount ready_count() const override {
    return inner_.ready_count();
  }
  std::unique_ptr<dag::Job> fresh_clone() const override {
    return std::make_unique<OpaqueProfileJob>(widths_);
  }

 private:
  std::vector<dag::TaskCount> widths_;
  dag::ProfileJob inner_;
};

std::vector<dag::TaskCount> random_profile(util::Rng& rng) {
  const auto levels = static_cast<std::size_t>(rng.uniform_int(2, 10));
  std::vector<dag::TaskCount> widths(levels);
  for (auto& w : widths) {
    w = rng.uniform_int(1, 60);
  }
  return widths;
}

std::vector<JobSubmission> random_set(std::uint64_t seed, std::size_t jobs,
                                      bool opaque_mix = false) {
  util::Rng rng(util::Rng::derive_seed(4242, seed));
  std::vector<JobSubmission> subs;
  for (std::size_t i = 0; i < jobs; ++i) {
    auto widths = random_profile(rng);
    std::unique_ptr<dag::Job> job;
    if (opaque_mix && i % 3 == 1) {
      job = std::make_unique<OpaqueProfileJob>(std::move(widths));
    } else {
      job = std::make_unique<dag::ProfileJob>(std::move(widths));
    }
    subs.push_back(JobSubmission{
        std::move(job),
        static_cast<dag::Steps>(rng.uniform_int(0, 200)),
        {}});
  }
  return subs;
}

std::string serialize(const SimResult& result) {
  std::ostringstream os;
  for (const JobTrace& trace : result.jobs) {
    write_trace_csv(os, trace);
    os << "\n";
  }
  os << "makespan=" << result.makespan << " quanta=" << result.quanta
     << " waste=" << result.total_waste
     << " mrt=" << result.mean_response_time << "\n";
  const fault::FaultLog& log = result.fault_log;
  if (log.enabled) {
    for (const fault::CrashRecord& c : log.crashes) {
      os << "crash job=" << c.job << " step=" << c.step
         << " lost=" << c.lost_work << " discarded=" << c.discarded_cycles
         << "\n";
    }
    os << "disturbances=";
    for (const dag::Steps step : log.disturbance_steps) {
      os << step << ",";
    }
    os << " failures=" << log.failure_events
       << " repairs=" << log.repair_events
       << " revocations=" << log.revocation_events
       << " min_capacity=" << log.min_capacity
       << " allotted=" << log.allotted_cycles << " lost=" << log.lost_work
       << " discarded=" << log.discarded_cycles << "\n";
  }
  return os.str();
}

/// Runs the identical scenario under both advance modes and requires the
/// serialized results to match byte for byte.
void expect_modes_identical(std::uint64_t seed, SimConfig config,
                            std::size_t jobs, bool opaque_mix = false) {
  sched::BGreedyExecution exec;
  sched::AControlRequest proto;

  config.skip_ahead = true;
  alloc::EquiPartition deq_fast;
  const SimResult fast = simulate_job_set_async(
      random_set(seed, jobs, opaque_mix), exec, proto, deq_fast, config);

  config.skip_ahead = false;
  alloc::EquiPartition deq_slow;
  const SimResult slow = simulate_job_set_async(
      random_set(seed, jobs, opaque_mix), exec, proto, deq_slow, config);

  ASSERT_EQ(serialize(fast), serialize(slow)) << "seed " << seed;
}

TEST(SkipAheadDifferentialTest, PlainRandomSets) {
  SimConfig config;
  config.processors = 32;
  config.quantum_length = 50;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    expect_modes_identical(seed, config, 6);
  }
}

TEST(SkipAheadDifferentialTest, SmallQuantaManyBoundaries) {
  SimConfig config;
  config.processors = 16;
  config.quantum_length = 3;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    expect_modes_identical(seed, config, 5);
  }
}

TEST(SkipAheadDifferentialTest, AdmissionCapQueuesJobs) {
  SimConfig config;
  config.processors = 32;
  config.quantum_length = 40;
  config.max_active_jobs = 2;  // forces queue churn and admission events
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    expect_modes_identical(seed, config, 7);
  }
}

TEST(SkipAheadDifferentialTest, ReallocationOverheadMigrationDebt) {
  SimConfig config;
  config.processors = 24;
  config.quantum_length = 30;
  config.reallocation_cost_per_proc = 3;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    expect_modes_identical(seed, config, 6);
  }
}

TEST(SkipAheadDifferentialTest, AdaptiveQuantumLengths) {
  sched::AdaptiveQuantumConfig qc;
  qc.min_length = 8;
  qc.max_length = 128;
  sched::AdaptiveQuantumLength policy(qc);
  SimConfig config;
  config.processors = 32;
  config.quantum_length = 8;
  config.quantum_length_policy = &policy;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    expect_modes_identical(seed, config, 5);
  }
}

TEST(SkipAheadDifferentialTest, OpaqueJobsForceStepwiseFallback) {
  // A mixed batch: jobs without a phase view drop the whole planner to
  // unit strides, and the result must still match the pure reference.
  SimConfig config;
  config.processors = 32;
  config.quantum_length = 25;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    expect_modes_identical(seed, config, 6, /*opaque_mix=*/true);
  }
}

TEST(SkipAheadDifferentialTest, FaultPlansForceStepwise) {
  // A fault plan bounds the strides at its event steps: the strided run
  // must match the unit-step reference, fault log included.
  fault::FaultPlan plan;
  fault::FaultEvent fail;
  fail.step = 40;
  fail.kind = fault::FaultKind::kProcessorFailure;
  fail.processors = 8;
  plan.events.push_back(fail);
  fault::FaultEvent repair;
  repair.step = 120;
  repair.kind = fault::FaultKind::kProcessorRepair;
  repair.processors = 8;
  plan.events.push_back(repair);
  fault::FaultEvent crash;
  crash.step = 90;
  crash.kind = fault::FaultKind::kJobCrash;
  crash.job = 1;
  plan.events.push_back(crash);

  SimConfig config;
  config.processors = 24;
  config.quantum_length = 20;
  config.faults = &plan;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    expect_modes_identical(seed, config, 5);
  }
}

TEST(SkipAheadDifferentialTest, FaultPlansStrideLikeUnitSteps) {
  // Random faulted runs: strides bounded by the plan's next event step or
  // revocation expiry must reproduce the unit-step reference byte for
  // byte.  Staggered releases leave idle gaps, so revocations are often
  // consumed late with their window already over; the strided run must
  // then take one unit step, as the reference does, before the expiry
  // repartitions.
  sched::AdaptiveQuantumConfig qc;
  qc.min_length = 4;
  qc.max_length = 64;
  sched::AdaptiveQuantumLength policy(qc);
  for (std::uint64_t seed = 0; seed < 240; ++seed) {
    util::Rng rng(util::Rng::derive_seed(5151, seed));
    const auto jobs = static_cast<std::size_t>(rng.uniform_int(2, 7));
    SimConfig config;
    config.processors = static_cast<int>(rng.uniform_int(2, 24));
    config.quantum_length = rng.uniform_int(3, 40);
    if (rng.bernoulli(0.3)) {
      config.max_active_jobs = static_cast<int>(rng.uniform_int(1, 3));
    }
    if (rng.bernoulli(0.3)) {
      config.reallocation_cost_per_proc = 1;
    }
    if (rng.bernoulli(0.3)) {
      config.quantum_length_policy = &policy;
    }
    const bool opaque_mix = rng.bernoulli(0.25);
    const fault::FaultPlan plan = test::random_fault_plan(
        rng, static_cast<int>(jobs), config.processors, 400);
    config.faults = &plan;
    expect_modes_identical(seed, config, jobs, opaque_mix);
    if (HasFatalFailure()) {
      return;
    }
  }
}

/// Forwards to an inner job and counts run_quantum and step calls.
class CountingJob final : public dag::Job {
 public:
  CountingJob(std::unique_ptr<dag::Job> inner, std::int64_t* calls)
      : inner_(std::move(inner)), calls_(calls) {}

  bool finished() const override { return inner_->finished(); }
  dag::TaskCount step(int procs, dag::PickOrder order) override {
    ++*calls_;
    return inner_->step(procs, order);
  }
  dag::QuantumExecution run_quantum(int procs, dag::Steps budget,
                                    dag::PickOrder order) override {
    ++*calls_;
    return inner_->run_quantum(procs, budget, order);
  }
  dag::TaskCount total_work() const override { return inner_->total_work(); }
  dag::Steps critical_path() const override {
    return inner_->critical_path();
  }
  dag::TaskCount completed_work() const override {
    return inner_->completed_work();
  }
  double level_progress() const override { return inner_->level_progress(); }
  dag::TaskCount ready_count() const override {
    return inner_->ready_count();
  }
  dag::PhaseView phase_view() const override { return inner_->phase_view(); }
  std::unique_ptr<dag::Job> fresh_clone() const override {
    return std::make_unique<CountingJob>(inner_->fresh_clone(), calls_);
  }

 private:
  std::unique_ptr<dag::Job> inner_;
  std::int64_t* calls_;
};

TEST(SkipAheadDifferentialTest, FaultedRunsAdvanceInStrides) {
  // A faulted run at a long quantum advances each job once per event, not
  // once per step: far fewer job calls than simulated job-steps.
  fault::FaultPlan plan = fault::periodic_crash_plan(1, 250, 700, 2);
  plan.work_loss = fault::WorkLoss::kRestartFromScratch;
  for (const dag::Steps step : {150, 900}) {
    fault::FaultEvent fail;
    fail.step = step;
    fail.kind = fault::FaultKind::kProcessorFailure;
    fail.processors = 4;
    plan.events.push_back(fail);
    fault::FaultEvent repair = fail;
    repair.step = step + 300;
    repair.kind = fault::FaultKind::kProcessorRepair;
    plan.events.push_back(repair);
  }
  fault::FaultEvent revoke;
  revoke.step = 400;
  revoke.kind = fault::FaultKind::kAllotmentRevocation;
  revoke.job = 0;
  revoke.cap = 2;
  revoke.duration = 200;
  plan.events.push_back(revoke);

  SimConfig config;
  config.processors = 16;
  config.quantum_length = 100;
  config.faults = &plan;
  std::int64_t calls = 0;
  std::vector<JobSubmission> subs;
  for (int j = 0; j < 4; ++j) {
    subs.push_back(JobSubmission{
        std::make_unique<CountingJob>(
            std::make_unique<dag::ProfileJob>(
                dag::ProfileJob::from_runs(workload::constant_profile(6, 400))),
            &calls),
        static_cast<dag::Steps>(50 * j),
        {}});
  }
  sched::BGreedyExecution exec;
  sched::AControlRequest proto;
  alloc::EquiPartition deq;
  const SimResult result =
      simulate_job_set_async(std::move(subs), exec, proto, deq, config);

  ASSERT_EQ(result.fault_log.crashes.size(), 2u);
  dag::Steps job_steps = 0;
  for (const JobTrace& trace : result.jobs) {
    ASSERT_TRUE(trace.finished());
    for (const sched::QuantumStats& q : trace.quanta) {
      job_steps += q.steps_used;
    }
  }
  EXPECT_GT(job_steps, 4 * 400);
  EXPECT_LT(calls * 10, job_steps) << calls << " calls for " << job_steps
                                   << " job-steps";
}

/// The combinatorial stress case: everything at once.
TEST(SkipAheadDifferentialTest, KitchenSink) {
  sched::AdaptiveQuantumConfig qc;
  qc.min_length = 5;
  qc.max_length = 60;
  sched::AdaptiveQuantumLength policy(qc);
  SimConfig config;
  config.processors = 20;
  config.quantum_length = 10;
  config.max_active_jobs = 3;
  config.reallocation_cost_per_proc = 2;
  config.quantum_length_policy = &policy;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    expect_modes_identical(seed, config, 8, /*opaque_mix=*/true);
  }
}

/// The sync engine's whole-quantum path must be unaffected by job opacity:
/// an opaque job runs through ExecutionPolicy::run_quantum's stepwise
/// loop and must land on the identical trace as the closed-form profile.
TEST(SkipAheadDifferentialTest, SyncEngineOpaqueEquivalence) {
  sched::BGreedyExecution exec;
  sched::AControlRequest proto;
  SimConfig config;
  config.processors = 32;
  config.quantum_length = 40;

  alloc::EquiPartition deq_a;
  const SimResult closed = simulate_job_set(
      random_set(7, 5, /*opaque_mix=*/false), exec, proto, deq_a, config);
  alloc::EquiPartition deq_b;
  SimResult opaque;
  {
    // Same profiles, every job opaque.
    util::Rng rng(util::Rng::derive_seed(4242, 7));
    std::vector<JobSubmission> subs;
    for (std::size_t i = 0; i < 5; ++i) {
      auto widths = random_profile(rng);
      subs.push_back(JobSubmission{
          std::make_unique<OpaqueProfileJob>(std::move(widths)),
          static_cast<dag::Steps>(rng.uniform_int(0, 200)),
          {}});
    }
    opaque = simulate_job_set(std::move(subs), exec, proto, deq_b, config);
  }
  EXPECT_EQ(serialize(closed), serialize(opaque));
}

}  // namespace
}  // namespace abg::sim
