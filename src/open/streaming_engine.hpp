// Open-system streaming driver: continuous arrivals over the synchronous
// boundary model, with O(jobs-in-system) memory.
//
// The closed engines (sim/engine_core.hpp) materialize every submission
// up front, keep one JobRuntime per submitted job for the whole run, and
// retain every JobTrace in the result — all O(total jobs).  The streaming
// driver is a source of arrivals over the same sim::QuantumLoop: the
// loop's batch is a pool of recycled slots, and each busy boundary the
// driver refills free slots with admitted arrivals and advances the loop
// one quantum at budget P.  Allocation, the quantum itself, penalties and
// request feedback are the loop's; the driver owns arrivals, the FCFS
// backlog, the safety bound and the statistics, and bounds memory by the
// number of jobs *in the system*:
//
//   * Arrivals are generated lazily from an ArrivalProcess — only the
//     next undrawn arrival and a backlog of released-but-waiting stubs
//     ({release, work_scale, index}; ~24 bytes each) exist at once.  The
//     backlog is jobs-in-system by definition; in an overloaded system
//     (load > 1) it grows without bound, which is queueing reality, not
//     a leak.
//   * Jobs are built (by the job factory, from the per-job stream
//     Rng::derive(run seed, job index)) only at admission, into a loop
//     slot.  A finished job's DAG is freed at once, and its slot —
//     request-policy clone, lanes, trace (cleared) — is refilled in place
//     by a later admission through a free list.  At most max_active slots
//     ever exist.
//   * Completed jobs fold into open::OnlineStats (constant memory)
//     instead of accumulating traces; the result carries aggregates and
//     percentile estimates only.
//
// Determinism: every job's DAG is a pure function of (run seed, job
// index), the arrival stream is a pure function of (run seed, arrival
// role), and the driver itself is single-threaded — so a run is byte-
// reproducible at any sweep thread count, which the open golden fixtures
// pin at --jobs 1 vs --jobs 4.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "alloc/allocator.hpp"
#include "dag/job.hpp"
#include "open/arrival_process.hpp"
#include "open/online_stats.hpp"
#include "sched/execution_policy.hpp"
#include "sched/request_policy.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace abg::obs {
class EventBus;
}  // namespace abg::obs

namespace abg::open {

/// Builds the DAG for one arrival.  `rng` is the job's private stream
/// (Rng::derive(run seed, job index)); `arrival.work_scale` sizes the job
/// relative to the factory's mean.
using JobFactory =
    std::function<std::unique_ptr<dag::Job>(util::Rng&, const Arrival&)>;

/// Configuration of one open-system run.
struct OpenConfig {
  /// Machine size P and quantum length L (the closed engines' defaults).
  int processors = 128;
  dag::Steps quantum_length = 1000;
  /// Admission cap (0 = P, the paper's |J| <= P discipline).  Also the
  /// bound on live runtime slots.
  std::size_t max_active = 0;
  /// Arrivals to push through the system (>= 1).  The run ends when all
  /// of them have completed.
  std::int64_t jobs_total = 0;
  /// Arrival-process family and tunables; kTrace reads trace_path.
  ArrivalKind arrival = ArrivalKind::kPoisson;
  ArrivalConfig arrivals;
  std::string trace_path;
  /// Offered load rho = (arrival rate · mean job work) / P.  When > 0 the
  /// driver calibrates arrivals.mean_gap = E[T1] / (load · P) from a
  /// 64-job pre-sample of the factory (a deterministic side stream);
  /// when 0 the configured arrivals.mean_gap is used as-is.  Ignored for
  /// trace arrivals (the trace owns its timing).
  double load = 0.0;
  /// Safety bound on simulated steps.  0 derives an incremental bound
  /// (latest release seen + 8 · work admitted + 64 · L) that grows with
  /// the stream, mirroring the closed engines' formula.
  dag::Steps max_steps = 0;
  /// Reallocation overhead per moved processor (0 = overhead-free).
  dag::Steps reallocation_cost_per_proc = 0;
  /// Statistics knobs (reservoir/series capacities; the seed is derived
  /// from the run seed internally).
  std::size_t reservoir_capacity = 4096;
  std::size_t series_capacity = 512;
  /// Optional observability bus (see obs/event_bus.hpp): publishes run
  /// lifecycle, admissions, allocations, quanta, and the open arrival /
  /// departure / summary events.  Null is a strict no-op.
  obs::EventBus* bus = nullptr;
  /// Optional cooperative cancellation, polled each boundary.
  const util::CancelToken* cancel = nullptr;
};

/// Result of one open-system run: aggregates only (no per-job traces).
struct OpenResult {
  /// Arrivals admitted into the system (== jobs_total on success).
  std::int64_t admitted = 0;
  /// Jobs completed (== jobs_total on success).
  std::int64_t completed = 0;
  /// Completion step of the last job (the horizon).
  dag::Steps makespan = 0;
  /// Global quanta simulated (boundaries that ran at least one job).
  std::int64_t quanta = 0;
  /// High-water mark of jobs in the system (queued + active) — the
  /// memory-boundedness witness.
  std::int64_t in_system_high_water = 0;
  /// Work executed and processor cycles wasted, summed over all jobs.
  dag::TaskCount total_work = 0;
  dag::TaskCount total_waste = 0;
  /// Mean-gap actually used (after load calibration), for reporting.
  double mean_gap = 0.0;
  /// The folded statistics (response/slowdown percentiles, queue depth).
  OnlineStats stats;
};

/// Job factory of the default open workload: fork-join-style ProfileJobs
/// with square-wave phases sized to a few quanta, widths scaled by the
/// arrival's work_scale.  Mean work is a few hundred cycles per quantum
/// length L, so a million-job stream stays simulable.
JobFactory default_open_job_factory(dag::Steps quantum_length);

/// Mean total work of `samples` draws of the factory at work_scale 1,
/// from the deterministic calibration stream of `seed` — the E[T1] the
/// load calibration divides by.
double calibrate_mean_work(const JobFactory& factory, std::uint64_t seed,
                           int samples = 64);

/// Runs one open-system stream to completion.  `allocator` is used as-is
/// (callers decide whether to reset it); `seed` is the run seed every
/// internal stream derives from.  Throws std::invalid_argument on a bad
/// config and std::runtime_error when the safety bound is exceeded.
OpenResult run_stream(const sched::ExecutionPolicy& execution,
                      const sched::RequestPolicy& request_prototype,
                      const JobFactory& factory, alloc::Allocator& allocator,
                      const OpenConfig& config, std::uint64_t seed);

}  // namespace abg::open
