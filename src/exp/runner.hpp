// The sweep engine: executes a grid of RunSpecs on a fixed thread pool.
//
// Determinism is the design center.  Each run's RNG stream is the pure
// function Rng::derive(base_seed, spec.seed_index) — no state is shared
// between runs, no run observes another — and each task writes its record
// into a pre-sized slot indexed by position in the grid.  The returned
// vector is therefore byte-for-byte independent of thread count and
// completion order: `--jobs 1` and `--jobs 8` produce identical results.
//
// Wall-clock telemetry (runs/sec, ETA) goes only through the progress
// callback, never into records.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "exp/run_spec.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/sweep_timeline.hpp"
#include "util/cancel.hpp"

namespace abg::exp {

class RunJournal;
struct JournalReplay;

/// Result of one run: identity plus a flat, ordered metric map.  Generic
/// on purpose — simulation sweeps, resilience studies and throughput
/// microbenchmarks all flow through the same record type and sink.
struct RunRecord {
  std::int64_t run_id = -1;
  std::string group;
  std::string scheduler;
  std::string workload;
  std::string fault;
  /// Simulation engine the run used ("sync" / "async").  Serialized to
  /// JSONL only when it differs from the default "sync" (and is
  /// non-empty), so pre-engine-axis artifacts stay byte-identical.
  std::string engine;
  /// Hierarchical allocation of the run: group count (0 = flat) and group
  /// allocator name.  Serialized only when hier_groups > 0 (same omission
  /// rule as `engine`), so pre-hier artifacts stay byte-identical.
  int hier_groups = 0;
  std::string hier_alloc;
  /// Cluster axis of the run: machine count (0 = flat) and router policy
  /// name.  Serialized only when cluster_machines > 0 (same omission rule
  /// as `hier_groups`), so pre-cluster artifacts stay byte-identical.
  int cluster_machines = 0;
  std::string router;
  /// Arrival-process family of an open-system run ("poisson" / "mmpp" /
  /// "diurnal" / "heavytail" / "trace"); empty — the default — for closed
  /// runs.  Serialized only when non-empty, so closed artifacts stay
  /// byte-identical.
  std::string arrival;
  /// Why the cell was quarantined ("timeout" / "error: ..."); empty — the
  /// default — for completed runs.  A quarantined record carries no
  /// metrics, is excluded from summary statistics, and is serialized with
  /// a "failure" key; completed records serialize exactly as before the
  /// field existed.
  std::string failure;
  std::uint64_t seed = 0;
  std::vector<std::pair<std::string, double>> metrics;

  /// Value of the named metric; throws std::out_of_range when absent.
  double metric(const std::string& name) const;
  /// True when the named metric is present.
  bool has_metric(const std::string& name) const;
};

/// Live telemetry handed to the progress callback after every completed
/// run (under the runner's lock: callbacks need no synchronization).
struct Progress {
  std::int64_t completed = 0;
  std::int64_t total = 0;
  double runs_per_second = 0.0;
  /// Wall-clock seconds since the sweep started.
  double elapsed_seconds = 0.0;
  /// Estimated wall-clock seconds to completion at the current rate.
  double eta_seconds = 0.0;
};

/// Durability / fault-handling knobs of a sweep execution.  The defaults
/// are all strict no-ops: no journal, no resume, no deadlines, no retry
/// budget, no shutdown tokens — run_monitored() then executes exactly the
/// grid, once each, and quarantines any cell whose single attempt throws.
struct RobustnessConfig {
  /// Per-run wall-clock deadline in seconds; <= 0 disables the watchdog
  /// deadline (runs may still be torn down via `abort`).
  double run_timeout_seconds = 0.0;
  /// Extra attempts granted to a failing cell before it is quarantined
  /// (0 = one attempt, no retry).
  int max_retries = 0;
  /// Base of the deterministic exponential retry backoff, in seconds
  /// (attempt k waits backoff * 2^(k-1)).
  double backoff_seconds = 0.1;
  /// When set, every cell lifecycle event is appended here (see
  /// exp/journal.hpp).  Must outlive the sweep.
  RunJournal* journal = nullptr;
  /// When set, cells recorded complete in the replay (with a matching
  /// spec digest) are re-used instead of executed.
  const JournalReplay* resume = nullptr;
  /// Orderly-shutdown token (first SIGINT): once fired, no new cell
  /// starts; in-flight runs finish and are journaled.
  const util::CancelToken* drain = nullptr;
  /// Escalation token (second SIGINT): once fired, in-flight runs are
  /// cancelled too (via the watchdog).  Implies drain.
  const util::CancelToken* abort = nullptr;
};

/// Configuration of a sweep execution.
struct SweepConfig {
  /// Worker threads; <= 0 selects hardware_concurrency.
  int threads = 1;
  /// Base seed: run i draws from Rng::derive(base_seed, spec_i.seed_index).
  std::uint64_t base_seed = 2008;
  /// Optional telemetry hook; see stderr_progress().
  std::function<void(const Progress&)> on_progress;
  /// When set, every run simulates under a private EventBus + MetricsSink
  /// and its registry is merged here under the runner's lock.  Merges are
  /// commutative and associative, so the merged registry is byte-identical
  /// at any thread count.
  obs::MetricsRegistry* metrics = nullptr;
  /// When set, each run's wall-clock execution slice (worker thread, start,
  /// end) is recorded here for Perfetto export.
  obs::SweepTimeline* timeline = nullptr;
  /// When set, accumulates span "sweep.run" (seconds + run count) so
  /// BENCH_profile.json can report sweep throughput.
  obs::Profiler* profiler = nullptr;
  /// Durability knobs of both run() and run_monitored().
  RobustnessConfig robustness;
};

/// Progress callback that renders a single self-overwriting status line
/// ("runs completed, runs/sec, ETA") on stderr.
std::function<void(const Progress&)> stderr_progress();

/// Per-attempt execution context of the monitored sweep path.
struct RunContext {
  /// When non-null, the run's engine metrics accumulate into `*metrics`
  /// (not cleared first): the run simulates under a private EventBus with
  /// a MetricsSink attached, chained into spec.obs.event_bus when that is
  /// also set.  For a faulted spec the fault-free reference simulation is
  /// observed too (it is part of the run's cost).
  obs::MetricsRegistry* metrics = nullptr;
  /// Cancellation token threaded into the run's SimConfig; the engines
  /// poll it at quantum boundaries and unwind with util::CancelledError.
  const util::CancelToken* cancel = nullptr;
  /// Zero-based attempt number (consumed by RunSpec::debug hooks).
  int attempt = 0;
};

/// Executes one RunSpec in the calling thread and returns its record (with
/// run_id unset).  A spec whose axes sim::check_composition forbids throws
/// std::invalid_argument before anything runs.  This is the unit of work
/// SweepRunner parallelizes; exposed so tests and special-purpose
/// harnesses can run it directly.
RunRecord execute_run(const RunSpec& spec, std::uint64_t base_seed,
                      const RunContext& context);

/// What a monitored sweep did, beyond the records themselves.
struct SweepOutcome {
  /// One record per grid cell, ordered by grid position.  Completed cells
  /// carry metrics; quarantined cells carry `failure` and no metrics;
  /// cells skipped by a drain keep run_id == -1 (the sweep is then
  /// `interrupted` and the artifacts are not final).
  std::vector<RunRecord> records;
  /// Cells actually executed (at least one attempt ran).
  std::int64_t executed = 0;
  /// Cells re-used from the resume replay without executing.
  std::int64_t resumed = 0;
  /// Cells that exhausted their retry budget.
  std::int64_t quarantined = 0;
  /// Attempts beyond each cell's first (sum over cells).
  std::int64_t retries = 0;
  /// Attempts cancelled by the watchdog deadline.
  std::int64_t timeouts = 0;
  /// Cells never started because a drain/abort arrived first.
  std::int64_t skipped = 0;
  /// True when a drain or abort token fired during the sweep.
  bool interrupted = false;
};

/// Thread-pool executor for RunSpec grids.
class SweepRunner {
 public:
  explicit SweepRunner(SweepConfig config) : config_(std::move(config)) {}

  /// run_monitored() that fails on a quarantined cell.  After every cell
  /// has run, rethrows the original exception of the quarantined cell with
  /// the lowest run id; with none, returns the records ordered by grid
  /// position (records[i].run_id == i, except cells a drain skipped).  An
  /// empty grid is a no-op returning {}.
  std::vector<RunRecord> run(const std::vector<RunSpec>& specs) const;

  /// The durable path: journaling, resume, watchdog deadlines, retry with
  /// backoff, quarantine, and drain/abort handling per
  /// config.robustness.  Run exceptions never propagate — a cell that
  /// exhausts its budget is quarantined and the sweep continues.
  SweepOutcome run_monitored(const std::vector<RunSpec>& specs) const;

 private:
  /// The one cell loop behind run() and run_monitored().  Sets errors[i]
  /// to the last exception of cell i when it is quarantined, else null.
  SweepOutcome monitor(const std::vector<RunSpec>& specs,
                       std::vector<std::exception_ptr>& errors) const;

  SweepConfig config_;
};

}  // namespace abg::exp
