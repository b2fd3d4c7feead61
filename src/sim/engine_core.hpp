// Unified event-driven simulation core.
//
// Two loops drive every simulation in this library:
//
//   * QuantumLoop — the synchronous two-level feedback loop.  All jobs of
//     its batch share quantum boundaries.  Per boundary: consume the
//     fault window, admit FCFS up to the cap, allocate once over the
//     active jobs' desires against the caller's budget, run each active
//     job a whole quantum (charging reallocation penalties weighted by the
//     loop's machine shape), feed the completed stats back to the request
//     policies, and let the optional quantum-length policy pick the next
//     boundary.  The loop is re-entrant: advance(horizon, budget) runs it
//     up to a step horizon at a processor budget and returns, keeping its
//     clock, queue and scratch state for the next call.
//       Each boundary costs O(active + admissions · log n), not O(batch):
//     the loop's LifecycleIndex (sim/job_runtime.hpp) yields the FCFS
//     admission candidate and the idle skip's target, its active list
//     drives allocation, execution and feedback, and the allocator sees
//     only the active slots' requests with their slot ids
//     (alloc::Allocator::allocate_slots).  A batch of 10^4 slots with a
//     few dozen running pays for the few dozen.
//       - run_single_job and simulate_job_set are one advance to an
//         unbounded horizon at budget P (QuantumLoop::run).
//       - The sharded (hier) and cluster drivers are one loop per group or
//         machine, advanced epoch by epoch at budgets set by the tier
//         above (sim/partitioned_driver.hpp).  They run without fault
//         plans, quantum-length policies, event bus or cancel token; the
//         tier driver publishes and polls on the coordinator thread.
//       - The open streaming driver (open/streaming_engine.hpp) is one
//         loop whose batch is its recycled slot pool: it refills finished
//         slots with admitted arrivals (refill) and advances one quantum
//         per busy boundary at budget P.
//
//   * run_per_job_quanta — each job's quanta are counted from its own
//     admission; the machine is re-partitioned over the active jobs'
//     requests whenever any event occurs (admission, boundary, completion,
//     capacity change), so allotments can change mid-quantum and the
//     recorded per-quantum allotment is a rounded time average.  Between
//     events the system evolves deterministically at fixed allotments, so
//     the driver plans the distance to the next event (quantum boundary,
//     completion, admission eligibility, step bound) and advances all
//     active jobs by that stride in closed form (sim/quantum_eval.hpp) —
//     O(events + level runs crossed) instead of O(steps).  A fault plan is
//     a finite list of event steps, so its next event (or revocation
//     expiry) bounds the stride like any other event.  The stride is one
//     step while any active job lacks a phase view, and a unit stride
//     runs through the same advance (run_quantum for one step is one
//     step()).
//     Reallocation penalties are charged as *migration debt*: each
//     repartition that moves a job's processors adds cost·|Δa| pending
//     migration steps (capped at the quantum length) during which the job
//     holds its allotment but executes nothing — the unit-step realization
//     of the synchronous loop's up-front penalty.  Like the sync loop it
//     admits from a LifecycleIndex and idles to its top; repartitioning,
//     stride planning, advancing and post-step events run over the active
//     list, so an event costs O(active + admissions · log n).
//
// Both share FCFS admission with the max_active cap through one index
// type (lowest eligible step first, ties by slot; jobs visited in
// ascending slot order), fault-plan application (checkpoint/scratch
// crash recovery requeued through the index, preserve/reset policy
// state, capacity churn via FaultyAllocator), size-aware allocation
// (remaining work for allocators such as heSRPT), per-quantum accounting
// (T1(q), T∞(q), waste, availability) and JobTrace/QuantumStats
// emission: each record is appended straight to its job's trace, and
// feedback, quantum-length policies and events read it back from there.
//
// Regression contract: the wrappers produce byte-identical traces,
// metrics and exception messages across refactors (tests/golden pins
// them).  Error strings are assembled from `context` so each entry point
// keeps its historic prefix.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "alloc/allocator.hpp"
#include "fault/fault_log.hpp"
#include "fault/fault_plan.hpp"
#include "sched/execution_policy.hpp"
#include "sched/quantum_length.hpp"
#include "sim/job_runtime.hpp"
#include "sim/simulator.hpp"

namespace abg::obs {
class EventBus;
}  // namespace abg::obs

namespace abg::sim {

/// Resolved configuration handed to a loop driver.  Wrappers translate
/// their public config structs into this: bounds resolved (> 0), caps
/// resolved, message prefix fixed.
struct CoreConfig {
  /// Message prefix for exceptions ("simulate_job_set", ...).
  const char* context = "engine_core";
  /// Machine size P: QuantumLoop::run's budget and the fault plan's
  /// capacity reference.
  int processors = 0;
  /// Fixed quantum length — or, when `quantum_length_policy` is set, the
  /// already-resolved initial length (the core never re-queries
  /// initial_length()).
  dag::Steps quantum_length = 0;
  /// Resolved safety bound on simulated steps (> 0).
  dag::Steps max_steps = 0;
  /// Resolved admission cap (> 0).
  std::size_t max_active = 0;
  /// Reallocation overhead per moved processor (0 = overhead-free).
  dag::Steps reallocation_cost_per_proc = 0;
  /// Optional fault plan; null or empty is a strict no-op.
  const fault::FaultPlan* faults = nullptr;
  /// Optional quantum-length policy.  QuantumLoop: consulted once per
  /// global boundary (with the sole job's stats when exactly one job ran
  /// the quantum — the single-job feedback loop — or machine-aggregated
  /// stats otherwise).  Per-job driver: cloned per job, consulted at that
  /// job's own boundaries.  Must outlive the run; reset by the wrapper.
  sched::QuantumLengthPolicy* quantum_length_policy = nullptr;
  /// Suffix of the stalled-progress error, after "<context>: exceeded
  /// step bound; " (the historic messages differ per entry point).
  const char* stall_reason = "scheduling is not making progress";
  /// Optional observability bus.  Null (or a bus with no sinks) keeps the
  /// engine on the exact pre-observability code path: each hook site pays
  /// one pointer test and nothing else.  Sinks observe; they cannot
  /// influence the run.
  obs::EventBus* bus = nullptr;
  /// Optional cooperative cancellation token, polled at the top of every
  /// boundary iteration.  A cancelled run throws util::CancelledError.
  /// Null — the default — costs one pointer test per boundary.
  const util::CancelToken* cancel = nullptr;
  /// Per-job driver only: advance in closed-form strides between events
  /// (sim/quantum_eval.hpp) instead of unit strides.  Outputs are
  /// identical either way — the differential tests pin it, fault plans
  /// included — so false exists as the reference mode for those tests and
  /// for debugging, not as a feature switch.
  bool skip_ahead = true;
};

struct FaultSession;

/// The synchronous quantum loop over one batch, re-entrant at quantum
/// boundaries.  Its state — clock, queue, counters, scratch buffers —
/// persists between advance() calls, so a tier driver can interleave many
/// loops epoch by epoch and get, per loop, exactly the trace one
/// uninterrupted run at the same budgets would produce.
class QuantumLoop {
 public:
  /// Takes the batch; `remaining` counts its unfinished jobs.  The
  /// allocator is borrowed and used as-is (callers decide whether to
  /// reset it); `config.faults` engages the fault machinery.
  QuantumLoop(JobBatch batch, std::size_t remaining,
              const sched::ExecutionPolicy& execution,
              alloc::Allocator& allocator, const CoreConfig& config);
  QuantumLoop(QuantumLoop&&) noexcept;
  ~QuantumLoop();

  /// Runs quanta of `budget` processors while jobs remain and the clock
  /// is before `horizon`.  A quantum that starts before the horizon runs
  /// whole, and an idle skip may overshoot it; callers align horizons to
  /// whole quanta.
  void advance(dag::Steps horizon, int budget);

  /// Starts job `id`, released at `release`, in `slot` and admits it at
  /// the loop's clock; the caller keeps the FCFS queue and the admission
  /// cap.  `slot` is a finished slot, reused in place: its lanes are reset
  /// as by JobBatch::append, its request-policy clone is reset, and its
  /// trace is cleared (capacity kept) and re-seeded as intake seeds it.
  /// Or `slot` is batch.size(), which appends a slot holding a clone of
  /// `request_prototype`.  A job with no work finishes as it is admitted.
  void refill(std::size_t slot, std::unique_ptr<dag::Job> job,
              std::int64_t id, dag::Steps release,
              const sched::RequestPolicy& request_prototype);

  /// The flat run: publishes intake, advances to an unbounded horizon at
  /// budget config.processors and returns the traces in slot order with
  /// the aggregates and the fault log.
  SimResult run();

  /// Moves the queued job in `slot` to loop `to`, eligible there from
  /// `eligible`, and returns its slot in `to`.  The slot here is
  /// tombstoned kDone; the job's runtime, trace included, moves with it
  /// into a fresh slot with default lanes.  The cluster driver's queue
  /// migration goes through here so both loops' eligibility heaps stay
  /// consistent.
  std::size_t transfer_queued(std::size_t slot, QuantumLoop& to,
                              dag::Steps eligible);

  /// Desire the loop brings to the epoch ending at `horizon`: the live
  /// desires of its active jobs plus one processor per queued job that
  /// becomes eligible before the horizon (its real desire is unknown until
  /// admission; one is the conservative floor).
  int aggregated_desire(dag::Steps horizon) const;

  JobBatch batch;
  /// Regions of the machine the loop runs on; they weigh the reallocation
  /// penalty (region_reallocation_penalty).  No regions: the flat penalty.
  ClusterMachine shape;
  std::size_t remaining = 0;
  dag::Steps now = 0;
  /// Quanta run (boundaries with at least one active job).
  std::int64_t quanta = 0;
  /// Σ work executed and Σ allotment · length over every quantum run.
  dag::TaskCount executed_work = 0;
  dag::TaskCount allotted_cycles = 0;

 private:
  CoreConfig config_;
  const sched::ExecutionPolicy* execution_;
  alloc::Allocator* allocator_;
  obs::EventBus* bus_;
  std::unique_ptr<FaultSession> faults_;
  fault::FaultLog fault_log_;
  /// Current quantum length (moves only under a quantum-length policy).
  dag::Steps length_;
  /// The queued slots' eligibility heap and the active list.
  LifecycleIndex index_;
  // Scratch buffers reused across quanta, one entry per active slot.
  std::vector<int> requests_;
  std::vector<double> sized_;
  /// Jobs whose feedback is deferred past the bound check.
  std::vector<std::size_t> feedback_;
};

/// A job set ingested and resolved for one of the flat set drivers.
struct SetRun {
  JobBatch batch;
  IntakeTotals totals;
  CoreConfig core;
};

/// Front half of simulate_job_set and simulate_job_set_async: validates
/// the config (SimConfig::validate), resets the allocator, ingests
/// the submissions, and resolves the quantum-length policy's initial
/// length (as core.quantum_length), the safety bound (widened by the
/// fault plan's slack) and the admission cap.  Messages start with
/// `context`.
SetRun prepare_set(std::vector<JobSubmission> submissions,
                   const sched::RequestPolicy& request_prototype,
                   alloc::Allocator& allocator, const SimConfig& config,
                   const char* context);

// Event helpers every closed driver publishes through.  publish_intake
// and publish_run_end accept a null bus; the others need a live one.
/// The run start and one submit per job; `traces[i]` is job i's trace.
void publish_intake(obs::EventBus* bus, int processors,
                    dag::Steps quantum_length,
                    const std::vector<const JobTrace*>& traces);
/// One quantum record, exactly as it entered the trace.
void publish_quantum(obs::EventBus* bus, std::int64_t job,
                     const sched::QuantumStats& stats);
void publish_complete(obs::EventBus* bus, std::int64_t job, dag::Steps step);
void publish_run_end(obs::EventBus* bus, dag::Steps makespan);

/// Derives a result's makespan, mean response time and total waste from
/// its job traces.
void summarize_result(SimResult& result);

/// Drives `batch` to completion with per-job quantum boundaries and
/// repartition-on-every-event.  Time advances in planned strides: between
/// events (boundaries, completions, admissions, repartitions, fault
/// events and revocation expiries) the system is closed-form for
/// phase-structured jobs, so the driver jumps whole event-free spans at
/// once (config.skip_ahead), one step at a time while an active job has
/// no phase view.  Sets
/// SimResult::averaged_allotments; `SimResult::quanta` counts unit steps
/// of engine activity (identical under either advance mode).
SimResult run_per_job_quanta(JobBatch& batch, const IntakeTotals& totals,
                             const sched::ExecutionPolicy& execution,
                             alloc::Allocator& allocator,
                             const CoreConfig& config);

/// Extra steps to add to a derived (config.max_steps == 0) safety bound
/// when a non-empty fault plan is attached: crashes redo work and outages
/// stall progress, so the bound widens by the work each crash can force to
/// be repeated, a window per event, and the plan's own horizon.
dag::Steps fault_bound_slack(const fault::FaultPlan& plan,
                             dag::TaskCount total_work,
                             dag::Steps quantum_length);

}  // namespace abg::sim
