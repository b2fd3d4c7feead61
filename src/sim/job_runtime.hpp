// Per-job runtime state shared by every simulation engine, batched
// structure-of-arrays.
//
// All three engines (single-job, synchronous global quanta, asynchronous
// per-job quanta) track the same per-job bookkeeping: the executable job,
// its private clone of the request-policy prototype, the trace being
// assembled, the feedback desire, admission eligibility and crash/restart
// flags.  The hot per-boundary passes — admission, desire collection,
// regime checks, stride planning — touch only a few small fields per job,
// so those live in JobBatch as contiguous lanes (desire, allotment,
// previous_allotment, eligible_step, regime), while the cold per-job state
// (job pointers, policy clones, the growing trace, quantum accumulators)
// stays in JobRuntime, one element per lane slot.  Both loops reach the
// lanes through a LifecycleIndex (an eligibility heap and an active list,
// below), so they touch only the slots that are admitted or running.
//
// This header is an engine-internal contract (consumed by
// sim/engine_core.hpp); external code interacts with the engines through
// sim/quantum_engine.hpp, sim/simulator.hpp and sim/async_simulator.hpp.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dag/job.hpp"
#include "sched/quantum_length.hpp"
#include "sched/request_policy.hpp"
#include "sim/simulator.hpp"

namespace abg::sim {

/// Adds `delta` cycles to an accumulator with an overflow check.  Cycle
/// counters sum allotment · steps products; at large P over long quanta
/// (or under a runaway quantum-length policy) they can approach the
/// TaskCount range, and a silent wrap would corrupt waste accounting —
/// fail loudly instead.
inline void add_cycles_checked(dag::TaskCount& acc, dag::TaskCount delta,
                               const char* what) {
  dag::TaskCount out = 0;
  if (__builtin_add_overflow(acc, delta, &out)) {
    throw std::overflow_error(std::string(what) +
                              ": cycle accumulator overflow");
  }
  acc = out;
}

/// allotment · steps with an overflow check, for the same accumulators.
inline dag::TaskCount mul_cycles_checked(dag::TaskCount a, dag::TaskCount b,
                                         const char* what) {
  dag::TaskCount out = 0;
  if (__builtin_mul_overflow(a, b, &out)) {
    throw std::overflow_error(std::string(what) +
                              ": cycle product overflow");
  }
  return out;
}

/// Lifecycle lane of one batch slot.
enum class JobRegime : std::uint8_t {
  /// Submitted but not running: unreleased, queued behind the admission
  /// cap, or awaiting a post-crash restart.
  kQueued = 0,
  /// Admitted and holding a processor allotment.
  kActive = 1,
  /// Finished (or zero-work at submission).
  kDone = 2,
};

/// Cold runtime state of one job inside an engine run.
///
/// The job and request policy are working pointers: engines that own their
/// jobs (the multiprogrammed simulators, which take submissions by value)
/// keep the owning unique_ptr alongside, while run_single_job borrows the
/// caller's objects.  A restart-from-scratch crash recovery always moves to
/// an owned fresh clone, so a borrowed original is left as-is (partially
/// executed) and the restarted run continues on engine-owned state.
struct JobRuntime {
  dag::Job* job = nullptr;
  std::unique_ptr<dag::Job> owned_job;
  sched::RequestPolicy* request = nullptr;
  std::unique_ptr<sched::RequestPolicy> owned_request;
  /// Per-job clone of the run's quantum-length policy (asynchronous engine
  /// only — each job has its own boundary schedule, hence its own policy
  /// state).  Null when the run uses a fixed quantum length.
  std::unique_ptr<sched::QuantumLengthPolicy> quantum_policy;
  JobTrace trace;
  /// 1-based index of the quantum in flight (or last completed).
  std::int64_t local_quantum = 0;
  /// A checkpoint-crashed job with preserved policy state resumes with
  /// its last desire instead of first_request() on re-admission.
  bool resumed = false;

  // Current-quantum accumulators (asynchronous engine: quanta are counted
  // from the job's own admission and executed in unit steps or planned
  // strides).
  /// Length of the in-flight quantum (the run's fixed L, or the per-job
  /// quantum-length policy's current choice).
  dag::Steps quantum_target = 0;
  dag::Steps quantum_elapsed = 0;
  dag::Steps quantum_start = 0;
  dag::TaskCount work_before = 0;
  double progress_before = 0.0;
  dag::TaskCount held_cycles = 0;  // Σ allotment over quantum steps
  dag::TaskCount idle_cycles = 0;  // Σ (allotment − executed) per step
  dag::Steps idle_steps = 0;
  /// Outstanding migration steps: while positive, the job holds its
  /// allotment but executes no work (the asynchronous realization of the
  /// reallocation penalty; see engine_core.hpp).
  dag::Steps migration_debt = 0;

  /// Replaces the job with a fresh clone (restart-from-scratch recovery).
  /// The replacement is always engine-owned, whether or not the original
  /// was.
  void restart_from_scratch() {
    owned_job = job->fresh_clone();
    job = owned_job.get();
  }
};

/// Structure-of-arrays batch of job runtime states.  Lane i and jobs[i]
/// describe the same submission; lanes are kept in lockstep by append().
struct JobBatch {
  /// Current feedback desire d(q) (valid while kActive or resumed).
  std::vector<int> desire;
  /// Current allotment (asynchronous engine: held between repartitions).
  std::vector<int> allotment;
  /// Allotment of the previous quantum (or repartition), for reallocation-
  /// penalty charging; 0 after (re-)admission so the initial placement is
  /// charged too.
  std::vector<int> previous_allotment;
  /// Step from which the job may be (re-)admitted: the release step, or
  /// after a crash the end of the crash quantum plus the restart delay.
  std::vector<dag::Steps> eligible_step;
  std::vector<JobRegime> regime;
  /// Id the loop's events name the job by: the slot index as appended,
  /// or the tenant's arrival index once an open stream refills the slot.
  std::vector<std::int64_t> id;
  std::vector<JobRuntime> jobs;

  std::size_t size() const { return jobs.size(); }
  bool empty() const { return jobs.empty(); }
  bool active(std::size_t i) const { return regime[i] == JobRegime::kActive; }
  bool done(std::size_t i) const { return regime[i] == JobRegime::kDone; }

  /// Appends one slot with default lanes (desire 1, no allotment,
  /// eligible at step 0, queued, id = its index) and returns its index.
  std::size_t append(JobRuntime runtime) {
    jobs.push_back(std::move(runtime));
    desire.push_back(1);
    allotment.push_back(0);
    previous_allotment.push_back(0);
    eligible_step.push_back(0);
    regime.push_back(JobRegime::kQueued);
    id.push_back(static_cast<std::int64_t>(jobs.size() - 1));
    return jobs.size() - 1;
  }
};

/// Lifecycle index over one batch's queued and active slots, shared by
/// both quantum loops so each boundary or event touches only the slots
/// that are admitted or running.
///
/// A min-heap on (eligible step, slot) holds the queued slots: its top is
/// the FCFS admission candidate (lowest eligible step, ties by lowest
/// slot) and, when nothing runs, the step to idle to.  Entries go stale
/// when their slot leaves the queue or its eligible step moves; they are
/// dropped when they reach the top.  The active slots are kept in
/// ascending slot order, the order jobs run, record and publish in.
class LifecycleIndex {
 public:
  /// Indexes the queued and active slots of `batch`.
  explicit LifecycleIndex(const JobBatch& batch);

  /// Enters queued slot `i` at its current eligible step.
  void enqueue(const JobBatch& batch, std::size_t i);
  /// Pops the admission candidate eligible at `now`, or returns
  /// batch.size() when none is.
  std::size_t pop_admissible(const JobBatch& batch, dag::Steps now);
  /// Earliest eligible step of a queued slot, capped at `bound`.
  dag::Steps next_eligible(const JobBatch& batch, dag::Steps bound);
  /// Enters slot `i` in the active list.
  void activate(std::size_t i);
  /// Removes the slots that are no longer kActive from the active list.
  void drop_inactive(const JobBatch& batch);

  const std::vector<std::size_t>& active() const { return active_; }

 private:
  void drop_stale(const JobBatch& batch);

  std::vector<std::pair<dag::Steps, std::size_t>> eligible_;
  std::vector<std::size_t> active_;
};

/// Totals accumulated while ingesting submissions, needed by the engines'
/// safety-bound formulas and completion tracking.
struct IntakeTotals {
  dag::TaskCount total_work = 0;
  dag::Steps latest_release = 0;
  /// Number of jobs not already finished at submission (zero-work jobs
  /// complete at their release step without entering the engine loop).
  std::size_t remaining = 0;
};

/// Validates and ingests a submission list into a runtime batch: each job
/// gets its own reset clone of the request prototype, its trace seeded with
/// release/work/critical-path, and zero-work jobs are marked done at their
/// release step.  Throws std::invalid_argument (prefixed with `context`)
/// on a null job or negative release step, matching the engines' historic
/// messages.
JobBatch intake_submissions(std::vector<JobSubmission> submissions,
                            const sched::RequestPolicy& request_prototype,
                            const char* context, IntakeTotals& totals);

}  // namespace abg::sim
