// Admission-order differential tests for both quantum loops.
//
// The sync QuantumLoop and the async run_per_job_quanta both admit from
// sim::LifecycleIndex, a min-heap on (eligible step, slot), and idle to
// its top.  The reference is the whole-batch scan below, the way both
// loops once admitted.  Each case replays a run's event stream against a
// shadow batch: wherever the loop admitted, the scan, run on the shadow
// under the same cap, must pick exactly the same slots in the same
// order, and the loop must reach every step at which the scan would
// admit (for the sync loop, every idle skip the scan implies lands on the
// boundary where the loop allocated next).  Random releases with
// equal-step ties, admission caps, completions and crash requeues
// (checkpoint and scratch, with restart delays) drive the cases, and the
// async cases run in both advance modes.  A cluster case checks that a
// migrated job is admitted on the receiving machine at the first boundary
// at or after its transfer eligibility.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/run.hpp"
#include "dag/profile_job.hpp"
#include "fault/fault_plan.hpp"
#include "obs/event_bus.hpp"
#include "sim/job_runtime.hpp"
#include "util/rng.hpp"
#include "workload/fork_join.hpp"
#include "workload/profiles.hpp"

namespace abg::sim {
namespace {

/// The fields of one event the replay needs.
struct Recorded {
  obs::EventKind kind = obs::EventKind::kRunStart;
  dag::Steps step = 0;
  std::int64_t job = -1;
  dag::TaskCount work = 0;
  dag::Steps restart_step = 0;
};

class EventLog final : public obs::Sink {
 public:
  void on_event(const obs::Event& e) override {
    events.push_back(Recorded{e.kind, e.step, e.job, e.work, e.restart_step});
  }
  std::vector<Recorded> events;
};

// The reference scan.

std::size_t active_count(const JobBatch& batch) {
  return static_cast<std::size_t>(std::count(
      batch.regime.begin(), batch.regime.end(), JobRegime::kActive));
}

/// FCFS admission candidate: the queued job with the lowest eligible step
/// (ties by slot), or size() when none is eligible at `now`.
std::size_t next_admission(const JobBatch& batch, dag::Steps now) {
  std::size_t best = batch.size();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch.regime[i] != JobRegime::kQueued || batch.eligible_step[i] > now) {
      continue;
    }
    if (best == batch.size() ||
        batch.eligible_step[i] < batch.eligible_step[best]) {
      best = i;
    }
  }
  return best;
}

/// Earliest step at which any unfinished job becomes eligible; `bound`
/// when none exists.
dag::Steps next_eligible_step(const JobBatch& batch, dag::Steps bound) {
  dag::Steps next = bound;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (!batch.done(i)) {
      next = std::min(next, batch.eligible_step[i]);
    }
  }
  return next;
}

/// The scan's admissions at boundary `now` under `cap`, applied to the
/// shadow batch.
std::vector<std::int64_t> scan_admissions(JobBatch& shadow, dag::Steps now,
                                          std::size_t cap) {
  std::vector<std::int64_t> admitted;
  while (active_count(shadow) < cap) {
    const std::size_t best = next_admission(shadow, now);
    if (best == shadow.size()) {
      break;
    }
    shadow.regime[best] = JobRegime::kActive;
    admitted.push_back(static_cast<std::int64_t>(best));
  }
  return admitted;
}

/// Replays a flat sync run's events against the reference scan.  Returns
/// the number of boundaries checked.
std::size_t expect_scan_order(const std::vector<Recorded>& events,
                              std::size_t cap, dag::Steps length) {
  JobBatch shadow;
  dag::Steps boundary = 0;  // the loop's clock at its next boundary
  std::vector<std::int64_t> admitted;  // admits since the last allocation
  std::vector<dag::Steps> admitted_at;
  std::size_t boundaries = 0;
  for (const Recorded& e : events) {
    switch (e.kind) {
      case obs::EventKind::kJobSubmit: {
        const std::size_t i = shadow.append(JobRuntime{});
        shadow.eligible_step[i] = e.step;
        if (e.work == 0) {
          shadow.regime[i] = JobRegime::kDone;
        }
        break;
      }
      case obs::EventKind::kJobAdmit:
        admitted.push_back(e.job);
        admitted_at.push_back(e.step);
        break;
      case obs::EventKind::kAllocation: {
        // Boundaries where the scan admits nothing and nothing runs are
        // idle: skip whole quanta toward the next eligible step, as the
        // loop must have.
        std::vector<std::int64_t> expected =
            scan_admissions(shadow, boundary, cap);
        while (active_count(shadow) == 0) {
          EXPECT_TRUE(expected.empty());
          const dag::Steps next = next_eligible_step(
              shadow, std::numeric_limits<dag::Steps>::max());
          boundary += std::max<dag::Steps>(1, (next - boundary) / length) *
                      length;
          expected = scan_admissions(shadow, boundary, cap);
        }
        EXPECT_EQ(e.step, boundary) << "idle skip landed elsewhere";
        EXPECT_EQ(admitted, expected) << "admission order at " << e.step;
        for (const dag::Steps at : admitted_at) {
          EXPECT_EQ(at, e.step) << "admission off the allocating boundary";
        }
        admitted.clear();
        admitted_at.clear();
        boundary = e.step + length;
        ++boundaries;
        break;
      }
      case obs::EventKind::kJobComplete:
        shadow.regime[static_cast<std::size_t>(e.job)] = JobRegime::kDone;
        break;
      case obs::EventKind::kJobCrash: {
        const auto i = static_cast<std::size_t>(e.job);
        shadow.regime[i] = JobRegime::kQueued;
        shadow.eligible_step[i] = e.restart_step;
        break;
      }
      default:
        break;
    }
  }
  for (std::size_t i = 0; i < shadow.size(); ++i) {
    EXPECT_TRUE(shadow.done(i)) << "job " << i << " never completed";
  }
  return boundaries;
}

std::unique_ptr<dag::Job> random_job(util::Rng& rng) {
  if (rng.bernoulli(0.5)) {
    return std::make_unique<dag::ProfileJob>(workload::random_walk_profile(
        rng, rng.uniform_int(1, 200), 16, 2.0));
  }
  workload::ForkJoinSpec spec;
  spec.transition_factor = static_cast<double>(rng.uniform_int(1, 16));
  spec.phase_pairs = static_cast<int>(rng.uniform_int(1, 3));
  spec.min_phase_levels = 5;
  spec.max_phase_levels = 100;
  return workload::make_fork_join_job(rng, spec);
}

TEST(AdmissionOrder, HeapAdmitsInScanOrder) {
  util::Rng rng(4711);
  std::size_t crashes = 0;
  std::size_t idle_skips = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const auto jobs = static_cast<int>(rng.uniform_int(1, 40));
    SimConfig config;
    config.processors = static_cast<int>(rng.uniform_int(1, 16));
    config.quantum_length = rng.uniform_int(5, 60);
    config.max_active_jobs = static_cast<int>(rng.uniform_int(1, 12));

    // Releases from a small set of steps, aligned and unaligned to the
    // quantum, so equal-step ties and idle gaps are common.
    std::vector<dag::Steps> release_points;
    const auto points = rng.uniform_int(1, 6);
    for (int p = 0; p < points; ++p) {
      release_points.push_back(rng.uniform_int(0, 40 * config.quantum_length));
    }
    std::vector<JobSubmission> subs;
    for (int j = 0; j < jobs; ++j) {
      JobSubmission sub;
      sub.job = random_job(rng);
      sub.release_step = release_points[static_cast<std::size_t>(
          rng.uniform_int(0, points - 1))];
      subs.push_back(std::move(sub));
    }

    fault::FaultPlan plan;
    if (rng.bernoulli(0.7)) {
      const auto count = rng.uniform_int(1, 12);
      for (int c = 0; c < count; ++c) {
        fault::FaultEvent crash;
        crash.kind = fault::FaultKind::kJobCrash;
        crash.step = rng.uniform_int(0, 60 * config.quantum_length);
        crash.job = static_cast<int>(rng.uniform_int(0, jobs - 1));
        plan.events.push_back(crash);
      }
      plan.work_loss = rng.bernoulli(0.5)
                           ? fault::WorkLoss::kCheckpointQuantum
                           : fault::WorkLoss::kRestartFromScratch;
      plan.policy_on_restart = rng.bernoulli(0.5)
                                   ? fault::PolicyOnRestart::kPreserve
                                   : fault::PolicyOnRestart::kReset;
      plan.restart_delay =
          rng.uniform_int(0, 3) * config.quantum_length / 2 +
          rng.uniform_int(0, 3);
      config.faults = &plan;
    }

    obs::EventBus bus;
    EventLog log;
    bus.subscribe(&log);
    config.obs.event_bus = &bus;
    const SimResult result =
        core::run_set(core::abg_spec(), std::move(subs), config);
    const std::size_t boundaries = expect_scan_order(
        log.events, static_cast<std::size_t>(config.max_active_jobs),
        config.quantum_length);
    EXPECT_EQ(static_cast<std::int64_t>(boundaries), result.quanta);
    for (const Recorded& e : log.events) {
      crashes += e.kind == obs::EventKind::kJobCrash ? 1u : 0u;
    }
    // A run whose quanta span more boundaries than it ran skipped some.
    const dag::Steps spanned = result.makespan / config.quantum_length;
    idle_skips += spanned > result.quanta ? 1u : 0u;
    if (HasFailure()) {
      FAIL() << "trial " << trial;
    }
  }
  // The cases must exercise what they claim to.
  EXPECT_GT(crashes, 10u);
  EXPECT_GT(idle_skips, 5u);
}

/// What an async replay exercised, for the coverage checks.
struct AsyncCoverage {
  std::size_t admissions = 0;
  std::size_t capped = 0;  // admission steps the cap cut short
  std::size_t ties = 0;    // admission steps with an equal-eligibility pair
};

/// Replays an async run's events against the reference scan.  The driver
/// visits every step at which a queued job becomes eligible while it is
/// under the cap (the stride planner stops there; the idle skip lands
/// there), so: the admits published at a step are exactly the scan's
/// picks at that step, no allocation step leaves an admissible job
/// queued, and the clock never passes a step at which the scan would have
/// admitted.
AsyncCoverage expect_async_scan_order(const std::vector<Recorded>& events,
                                      std::size_t cap) {
  JobBatch shadow;
  AsyncCoverage coverage;
  dag::Steps clock = 0;
  std::vector<std::int64_t> admitted;  // the pending admission group
  dag::Steps admitted_step = 0;
  auto check_group = [&] {
    if (admitted.empty()) {
      return;
    }
    std::vector<dag::Steps> eligible;
    for (const std::int64_t j : admitted) {
      eligible.push_back(shadow.eligible_step[static_cast<std::size_t>(j)]);
    }
    const std::vector<std::int64_t> expected =
        scan_admissions(shadow, admitted_step, cap);
    EXPECT_EQ(admitted, expected) << "admission order at " << admitted_step;
    coverage.admissions += admitted.size();
    std::sort(eligible.begin(), eligible.end());
    const bool tie =
        std::adjacent_find(eligible.begin(), eligible.end()) != eligible.end();
    const bool capped = active_count(shadow) == cap &&
                        next_admission(shadow, admitted_step) != shadow.size();
    coverage.ties += tie ? 1u : 0u;
    coverage.capped += capped ? 1u : 0u;
    admitted.clear();
  };
  for (const Recorded& e : events) {
    const bool timed = e.kind == obs::EventKind::kJobAdmit ||
                       e.kind == obs::EventKind::kAllocation ||
                       e.kind == obs::EventKind::kJobComplete ||
                       e.kind == obs::EventKind::kJobCrash;
    if (e.kind != obs::EventKind::kJobAdmit) {
      check_group();
    }
    if (timed && e.step > clock) {
      if (active_count(shadow) < cap) {
        EXPECT_EQ(next_admission(shadow, e.step - 1), shadow.size())
            << "clock passed an admissible job between " << clock << " and "
            << e.step;
      }
      clock = e.step;
    }
    switch (e.kind) {
      case obs::EventKind::kJobSubmit: {
        const std::size_t i = shadow.append(JobRuntime{});
        shadow.eligible_step[i] = e.step;
        if (e.work == 0) {
          shadow.regime[i] = JobRegime::kDone;
        }
        break;
      }
      case obs::EventKind::kJobAdmit:
        if (!admitted.empty() && admitted_step != e.step) {
          check_group();
        }
        admitted.push_back(e.job);
        admitted_step = e.step;
        break;
      case obs::EventKind::kAllocation:
        EXPECT_TRUE(scan_admissions(shadow, e.step, cap).empty())
            << "admissible job left queued at " << e.step;
        break;
      case obs::EventKind::kJobComplete:
        shadow.regime[static_cast<std::size_t>(e.job)] = JobRegime::kDone;
        break;
      case obs::EventKind::kJobCrash: {
        const auto i = static_cast<std::size_t>(e.job);
        shadow.regime[i] = JobRegime::kQueued;
        shadow.eligible_step[i] = e.restart_step;
        break;
      }
      default:
        break;
    }
  }
  check_group();
  for (std::size_t i = 0; i < shadow.size(); ++i) {
    EXPECT_TRUE(shadow.done(i)) << "job " << i << " never completed";
  }
  return coverage;
}

TEST(AdmissionOrder, AsyncAdmitsInScanOrder) {
  util::Rng rng(8191);
  AsyncCoverage total;
  std::size_t checkpoint_crashes = 0;
  std::size_t scratch_crashes = 0;
  std::size_t strided_trials = 0;
  std::size_t stepwise_trials = 0;
  for (int trial = 0; trial < 100; ++trial) {
    const auto jobs = static_cast<int>(rng.uniform_int(1, 30));
    SimConfig config;
    config.engine = EngineKind::kAsync;
    config.processors = static_cast<int>(rng.uniform_int(1, 16));
    config.quantum_length = rng.uniform_int(5, 40);
    config.max_active_jobs = static_cast<int>(rng.uniform_int(1, 8));
    config.skip_ahead = rng.bernoulli(0.6);

    std::vector<dag::Steps> release_points;
    const auto points = rng.uniform_int(1, 6);
    for (int p = 0; p < points; ++p) {
      release_points.push_back(rng.uniform_int(0, 40 * config.quantum_length));
    }
    std::vector<JobSubmission> subs;
    for (int j = 0; j < jobs; ++j) {
      JobSubmission sub;
      sub.job = random_job(rng);
      sub.release_step = release_points[static_cast<std::size_t>(
          rng.uniform_int(0, points - 1))];
      subs.push_back(std::move(sub));
    }

    // Crashes bound the strides at their steps; faulted trials stride too.
    fault::FaultPlan plan;
    if (rng.bernoulli(0.5)) {
      const auto count = rng.uniform_int(1, 12);
      for (int c = 0; c < count; ++c) {
        fault::FaultEvent crash;
        crash.kind = fault::FaultKind::kJobCrash;
        crash.step = rng.uniform_int(0, 60 * config.quantum_length);
        crash.job = static_cast<int>(rng.uniform_int(0, jobs - 1));
        plan.events.push_back(crash);
      }
      plan.work_loss = rng.bernoulli(0.5)
                           ? fault::WorkLoss::kCheckpointQuantum
                           : fault::WorkLoss::kRestartFromScratch;
      plan.policy_on_restart = rng.bernoulli(0.5)
                                   ? fault::PolicyOnRestart::kPreserve
                                   : fault::PolicyOnRestart::kReset;
      plan.restart_delay = rng.uniform_int(1, 2 * config.quantum_length);
      config.faults = &plan;
    }
    const bool strided = config.skip_ahead;
    strided_trials += strided ? 1u : 0u;
    stepwise_trials += strided ? 0u : 1u;

    obs::EventBus bus;
    EventLog log;
    bus.subscribe(&log);
    config.obs.event_bus = &bus;
    core::run_set(core::abg_spec(), std::move(subs), config);
    const AsyncCoverage coverage = expect_async_scan_order(
        log.events, static_cast<std::size_t>(config.max_active_jobs));
    total.admissions += coverage.admissions;
    total.capped += coverage.capped;
    total.ties += coverage.ties;
    for (const Recorded& e : log.events) {
      if (e.kind == obs::EventKind::kJobCrash) {
        (plan.work_loss == fault::WorkLoss::kCheckpointQuantum
             ? checkpoint_crashes
             : scratch_crashes) += 1;
      }
    }
    if (HasFailure()) {
      FAIL() << "trial " << trial;
    }
  }
  EXPECT_GT(total.capped, 20u);
  EXPECT_GT(total.ties, 20u);
  EXPECT_GT(checkpoint_crashes, 10u);
  EXPECT_GT(scratch_crashes, 10u);
  EXPECT_GT(strided_trials, 15u);
  EXPECT_GT(stepwise_trials, 15u);
}

TEST(AdmissionOrder, MigratedJobAdmittedAtTransferEligibility) {
  // Class-affinity puts every job on one machine of two; the other idles.
  // The first imbalance pass, at the end of the first epoch E, moves the
  // back of the loaded queue to the idle machine with one quantum of
  // transfer debt: eligible at E + L.  The idle receiver skips to E + L
  // and admits, up to its cap, the moved jobs in the order they arrived
  // (equal eligible steps tie by slot); the rest wait for a free slot.
  std::vector<JobSubmission> subs;
  for (int i = 0; i < 12; ++i) {
    JobSubmission sub;
    sub.job = std::make_unique<dag::ProfileJob>(dag::ProfileJob::from_runs(
        workload::square_wave_profile(4, 150, 4, 150, 1)));
    sub.name = "hot";
    subs.push_back(std::move(sub));
  }
  SimConfig config{.processors = 4, .quantum_length = 50};
  config.max_active_jobs = 2;
  config.cluster.machines = 2;
  config.cluster.migration_period = 2;
  config.cluster.router = "class-affinity";
  obs::EventBus bus;
  EventLog log;
  bus.subscribe(&log);
  config.obs.event_bus = &bus;
  const SimResult result =
      core::run_set(core::abg_spec(), std::move(subs), config);

  const dag::Steps first_epoch_end =
      config.cluster.migration_period * config.quantum_length;
  std::vector<std::int64_t> moved;
  for (const Recorded& e : log.events) {
    if (e.kind == obs::EventKind::kClusterMigrate &&
        e.step == first_epoch_end) {
      moved.push_back(e.job);
    }
  }
  const auto cap = static_cast<std::size_t>(config.max_active_jobs);
  ASSERT_GT(moved.size(), cap);
  const dag::Steps eligible = first_epoch_end + config.quantum_length;
  for (std::size_t k = 0; k < moved.size(); ++k) {
    const JobTrace& trace = result.jobs[static_cast<std::size_t>(moved[k])];
    ASSERT_FALSE(trace.quanta.empty());
    if (k < cap) {
      EXPECT_EQ(trace.quanta.front().start_step, eligible)
          << "moved job " << moved[k];
    } else {
      EXPECT_GT(trace.quanta.front().start_step, eligible)
          << "moved job " << moved[k];
    }
  }
}

}  // namespace
}  // namespace abg::sim
