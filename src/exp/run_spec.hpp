// Declarative description of one simulation run of a parameter sweep.
//
// A RunSpec names everything a run needs — scheduler (by kind + params),
// workload (by generator kind + params), machine, optional fault scenario,
// and a seed index — without holding any live objects, so specs are cheap
// to copy across threads and a grid of them fully determines a sweep.  The
// runner materializes jobs / policies / fault plans per run from
// Rng::derive(base_seed, seed_index), which is what makes results
// independent of execution order and thread count.
//
// Grid points that differ only in scheduler share a seed index, so every
// scheduler variant faces byte-identical workloads (common random numbers:
// paired comparisons like Figure 6's A-Greedy/ABG ratios stay exact).
#pragma once

#include <cstdint>
#include <string>

#include "core/run.hpp"
#include "dag/job.hpp"
#include "obs/obs_config.hpp"

namespace abg::exp {

/// Scheduler families the sweep engine can instantiate.
enum class SchedulerKind { kAbg, kAGreedy, kAbgAuto, kStatic };

/// Tunables of the scheduler families (unused members are ignored).
struct SchedulerParams {
  /// ABG convergence rate r.
  double convergence_rate = 0.2;
  /// A-Greedy utilization δ and responsiveness ρ.
  double utilization = 0.8;
  double responsiveness = 2.0;
  /// Fixed request of the static bracket.
  int static_processors = 64;
};

/// Workload generators the sweep engine can materialize.
enum class WorkloadKind {
  /// Figure-6 multiprogrammed job set at a target load (workload::make_job_set).
  kJobSet,
  /// `jobs` independent fork-join jobs at a target transition factor
  /// (workload::make_fork_join_job, Figure-5 spec).
  kForkJoin,
  /// `jobs` square-wave ProfileJobs with randomized amplitudes and phase
  /// lengths (the fault-resilience workload).
  kSquareWave,
  /// Declarative scenario file (scenario::ScenarioSpec); the spec's
  /// scenario_path names the file and the scenario owns job generation,
  /// releases and machine defaults.
  kScenario,
};

/// Release-time schedule applied to a closed workload's submissions
/// (workload/arrivals helpers).  kBatched — every job at step 0 — is the
/// historic default; the other kinds feed Theorem 5's arbitrary-release
/// bound and the arrivals bench.
enum class ReleaseKind { kBatched, kStaggered, kPoisson };

/// Parameters of the workload generators (unused members are ignored).
struct WorkloadSpec {
  WorkloadKind kind = WorkloadKind::kJobSet;
  /// kJobSet: target load (Σ average parallelism / P).  Open-axis runs
  /// (RunSpec::open) reuse this as the offered load rho the arrival gap
  /// is calibrated to.
  double load = 1.0;
  /// kForkJoin: target transition factor.
  double transition_factor = 10.0;
  /// kForkJoin / kSquareWave: number of jobs.
  int jobs = 1;
  /// kSquareWave: per-job profile length scale in levels.
  dag::Steps levels = 600;
  /// Release schedule of the generated jobs (closed runs only; the open
  /// axis owns its own arrival process).  Releases are drawn from the
  /// run's workload stream after job generation, so kBatched runs keep
  /// their historic draw sequence.
  ReleaseKind release = ReleaseKind::kBatched;
  /// kStaggered: the fixed inter-release gap; kPoisson: the mean
  /// inter-release gap (both in steps).
  double release_gap = 0.0;
  /// kScenario: path of the scenario file to load (scenario::load_cached).
  /// The scenario's own release schedule applies; the generic release
  /// fields above are ignored for scenario workloads.
  std::string scenario_path;
};

/// Machine parameters of a run.
struct MachineSpec {
  int processors = 128;
  dag::Steps quantum_length = 1000;
};

/// Disturbance patterns of the fault-resilience study.  Plans are anchored
/// on the fault-free reference makespan of the same (workload, scheduler,
/// machine), which the runner simulates first within the same task.
enum class FaultScenario { kNone, kStep, kImpulse, kPoisson, kCrash };

/// Fault-scenario parameters (ignored when scenario == kNone).
struct FaultSpec {
  FaultScenario scenario = FaultScenario::kNone;
  /// Fraction of the machine affected (step/impulse loss, poisson cap).
  double fraction = 0.5;
  /// kCrash: index of the crashing job and number of crashes.
  int crash_job = 0;
  int crashes = 2;
  /// kCrash: restart from scratch instead of the last quantum checkpoint.
  bool scratch = false;
};

/// The open-system axis of a run.  When `arrival != kNone` the run streams
/// `jobs_total` continuously arriving jobs through open::run_stream (the
/// default open workload, constant-memory statistics) instead of
/// simulating a closed job set; workload.load doubles as the offered load
/// the arrival gap is calibrated to (0 = use the generator defaults).
/// Open runs compose with the scheduler, machine, and allocator axes;
/// sim::check_composition lists what they exclude.
struct OpenSpec {
  open::ArrivalKind arrival = open::ArrivalKind::kNone;
  /// Arrivals to stream through the system (>= 1 when engaged).
  std::int64_t jobs_total = 100000;
  /// kTrace: path of the JSONL arrival trace to replay.
  std::string trace_path;
};

/// OS-level allocator coupled with the schedulers.
enum class AllocatorKind {
  /// Engine default: dynamic equi-partitioning (the paper's setup).
  kDefault,
  /// Round-robin (the other fair allocator the benches compare against).
  kRoundRobin,
  /// Size-aware heSRPT-style shares (alloc::HeSrpt): rank jobs by
  /// remaining work and split the machine along (k/n)^(1/(1-p))
  /// boundaries.
  kHesrpt,
};

AllocatorKind allocator_kind_from_name(const std::string& name);

/// Failure-injection hooks for robustness tests.  Never part of a spec's
/// digest: they change how a run *executes*, not what it computes, and
/// exist so ctest fixtures can exercise the watchdog / retry / quarantine
/// machinery deterministically.
struct DebugHooks {
  /// The run blocks until its cancellation token fires (then unwinds with
  /// util::CancelledError) instead of simulating.  Requires a token; a
  /// hang without one would never terminate, so it throws std::logic_error.
  bool hang = false;
  /// The first `fail_attempts` attempts of the run throw
  /// std::runtime_error before simulating; attempt `fail_attempts`
  /// onwards succeed.  0 disables the hook.
  int fail_attempts = 0;
};

/// One run of a sweep: the full cartesian point plus its seed index.
struct RunSpec {
  SchedulerKind scheduler = SchedulerKind::kAbg;
  SchedulerParams scheduler_params;
  WorkloadSpec workload;
  MachineSpec machine;
  FaultSpec faults;
  /// Open-system axis; arrival == kNone (the default) keeps the closed
  /// path byte-identical to pre-open artifacts.
  OpenSpec open;
  AllocatorKind allocator = AllocatorKind::kDefault;
  /// Boundary model the run simulates under (sync global quanta or
  /// per-job async quanta); an engine axis in a grid makes boundary-model
  /// comparisons on common random numbers.
  sim::EngineKind engine = sim::EngineKind::kSync;
  /// Hierarchical allocation: number of groups for the sharded set engine
  /// (0 = the flat path, the default) and the group/root allocator name
  /// ("" = the run's own allocator kind; else "deq" | "rr").
  int hier_groups = 0;
  std::string hier_alloc;
  /// Worker threads for a hier run's group loops (>= 1).  The default of 1
  /// keeps runs as the sweep's sole unit of parallelism; larger values let
  /// a sweep of few large hier cells use the machine.  The sharded engine
  /// is thread-count independent, so this never changes a record — which
  /// is also why it is excluded from the run's journal digest.
  int hier_threads = 1;
  /// Cluster axis: number of machines for the multi-machine engine
  /// (0 = the flat single-machine path, the default).  When engaged the
  /// run's `machine.processors` is the per-machine processor count and the
  /// cluster engine routes jobs across `cluster_machines` uniform machines.
  int cluster_machines = 0;
  /// Router policy of a cluster run ("" = the engine default,
  /// least-loaded; else round-robin | desire-aware | class-affinity).
  std::string router;
  /// Inter-machine migration period in quanta (0 = migration disabled).
  dag::Steps migration_period = 0;
  /// Worker threads for a cluster run's machine loops (>= 1).  Like
  /// hier_threads this never changes a record (the cluster engine is
  /// thread-count independent) and is excluded from the journal digest.
  int cluster_threads = 1;
  /// Index fed to Rng::derive(base_seed, seed_index) for workload and
  /// fault-plan generation.  Specs sharing a seed index see identical
  /// workloads (use this to pair scheduler variants).
  std::uint64_t seed_index = 0;
  /// Aggregation key: records with equal (group, scheduler name) are
  /// summarized together by the ResultSink (e.g. "load=1.5").
  std::string group;
  /// Observability hooks threaded into the run's SimConfig.  A bus set
  /// here receives the run's engine events (chained after the runner's
  /// own sinks).  Because specs are executed concurrently, a bus must not
  /// be shared between specs of one sweep.
  obs::ObsConfig obs = {};
  /// Failure-injection hooks (tests only; excluded from the digest).
  DebugHooks debug = {};
};

/// Canonical lower-case names used in CLI flags and JSON records.
std::string to_string(SchedulerKind kind);
std::string to_string(WorkloadKind kind);
std::string to_string(FaultScenario scenario);
std::string to_string(ReleaseKind kind);

/// Parses the canonical names (throws std::invalid_argument on unknown).
SchedulerKind scheduler_kind_from_name(const std::string& name);
WorkloadKind workload_kind_from_name(const std::string& name);
FaultScenario fault_scenario_from_name(const std::string& name);
ReleaseKind release_kind_from_name(const std::string& name);

/// The axes a spec engages, for sim::check_composition.
sim::RunAxes axes_of(const RunSpec& spec);

/// Instantiates the scheduler a spec names.
core::SchedulerSpec make_scheduler(SchedulerKind kind,
                                   const SchedulerParams& params);

}  // namespace abg::exp
