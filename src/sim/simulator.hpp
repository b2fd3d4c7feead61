// Multiprogrammed two-level scheduling simulator.
//
// Simulates a machine with P processors and global scheduling quanta of
// length L shared by a set of malleable jobs (the paper's second simulation
// set, Figure 6).  At every quantum boundary the allocator divides the
// machine among the requests of the active (released, unfinished) jobs;
// each job then executes the quantum with its own task scheduler.  Jobs
// released mid-quantum become active at the next boundary.  Allotments are
// fixed within a quantum: a job finishing early wastes the remainder of its
// allotted cycles, exactly as in the paper's accounting.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "alloc/allocator.hpp"
#include "dag/job.hpp"
#include "fault/fault_log.hpp"
#include "fault/fault_plan.hpp"
#include "obs/obs_config.hpp"
#include "sched/execution_policy.hpp"
#include "sched/quantum_length.hpp"
#include "sched/request_policy.hpp"
#include "sim/trace.hpp"
#include "util/cancel.hpp"

namespace abg::obs {
class Profiler;
}  // namespace abg::obs

namespace abg::sim {

/// Which boundary model a job-set run uses.  Both are thin policies over
/// the unified core in sim/engine_core.hpp.
enum class EngineKind {
  /// Global synchronous quantum boundaries shared by all jobs
  /// (simulate_job_set — the setup the paper's Figure 6 implies).
  kSync,
  /// Per-job quantum boundaries with repartition on every event
  /// (simulate_job_set_async).
  kAsync,
};

/// "sync" / "async".
std::string_view to_string(EngineKind kind);

/// Parses "sync" / "async"; throws std::invalid_argument otherwise.
EngineKind engine_kind_from_name(std::string_view name);

/// One job submitted to the simulator.
struct JobSubmission {
  std::unique_ptr<dag::Job> job;
  /// Release (arrival) step; 0 for batched release.
  dag::Steps release_step = 0;
  /// Optional label carried through to the result.
  std::string name;
};

/// Hierarchical allocation parameters (see hier/desire_aggregator.hpp and
/// sim/sharded_engine.hpp).  The default — 0 groups — selects the flat
/// engines and is a strict no-op.
struct HierConfig {
  /// Number of allocation groups; 0 = flat path, >= 1 = sharded engine
  /// (jobs dealt to groups by submission index mod groups).
  int groups = 0;
  /// Group/root allocator name ("deq" | "rr"); empty clones the run's
  /// machine allocator per group instead, which is what makes the 1-group
  /// case byte-identical to the flat path under the same allocator.
  std::string allocator;
  /// Rebalance epoch in quanta: the root re-splits the machine over the
  /// groups' aggregated desires every this many quanta (>= 1).  1 re-splits
  /// at every global boundary (tightest coupling, most synchronization);
  /// larger epochs let group loops run further between barriers.
  dag::Steps rebalance_quanta = 1;
  /// Worker threads for the group loops; <= 0 selects hardware
  /// concurrency.  Results are byte-identical at any thread count.
  int threads = 1;
  /// Optional self-profiling: accumulates span "hier.rebalance"
  /// (wall-clock aggregation latency; items = rebalances).  Wall-clock by
  /// design — never touches the deterministic outputs.
  obs::Profiler* profiler = nullptr;
  /// Optional out-param: filled with each pool worker's wall-clock busy
  /// seconds after the run (index = worker; see ThreadPool).  Wall-clock
  /// observation only — never touches the deterministic outputs.
  std::vector<double>* worker_busy_seconds = nullptr;
};

/// One NUMA-shaped region of a cluster machine: `processors` contiguous
/// processors whose reallocation traffic costs `cost_multiplier` times the
/// run's per-processor reallocation cost (cluster/cluster_spec.hpp).
struct ClusterRegion {
  int processors = 0;
  double cost_multiplier = 1.0;
};

/// One machine of a simulated cluster.  Regions partition the machine's
/// processors in order; an empty region list means one uniform region
/// (multiplier 1.0), which reproduces the flat reallocation penalty.
struct ClusterMachine {
  int processors = 0;
  std::vector<ClusterRegion> regions;
};

/// Cluster-mode parameters (see cluster/cluster_engine.hpp).  The default
/// — 0 machines — selects the flat engines and is a strict no-op.
struct ClusterConfig {
  /// Number of machines; 0 = flat path, >= 1 = the cluster driver (jobs
  /// placed by the router, one engine loop per machine).
  int machines = 0;
  /// Router policy name ("least-loaded" | "round-robin" | "desire-aware" |
  /// "class-affinity"); empty selects "least-loaded".
  std::string router;
  /// Inter-machine migration epoch in quanta: every this many quanta the
  /// coordinator checks desire imbalance and migrates queued jobs from
  /// over-quota machines, charging one quantum of transfer debt.  0 — the
  /// default — disables migration entirely.
  dag::Steps migration_period = 0;
  /// Worker threads for the machine loops; <= 0 selects hardware
  /// concurrency.  Results are byte-identical at any thread count.
  int threads = 1;
  /// Explicit machine shapes.  Empty — the default — builds `machines`
  /// uniform machines of SimConfig::processors each; when non-empty the
  /// size must equal `machines`.
  std::vector<ClusterMachine> shapes;
};

/// Simulation parameters.
struct SimConfig {
  /// Machine size P.
  int processors = 128;
  /// Quantum length L in unit steps.
  dag::Steps quantum_length = 1000;
  /// Safety bound on simulated steps (0 = derive from total work).
  dag::Steps max_steps = 0;
  /// Admission cap: at most this many jobs run concurrently; released jobs
  /// beyond it wait in an FCFS queue (by release step, ties by submission
  /// order).  0 means the cap is P — the paper's analysis requires
  /// |J| <= P so every running job can hold a processor.
  int max_active_jobs = 0;
  /// Reallocation overhead: a job whose allotment changed between quanta
  /// loses `cost * |Δa|` steps (capped at L) to migration at the start of
  /// the quantum.  0 reproduces the paper's overhead-free setting.
  dag::Steps reallocation_cost_per_proc = 0;
  /// Optional fault plan (processor churn, job crashes, allotment
  /// revocations; see fault/fault_plan.hpp).  Null or empty is a strict
  /// no-op: the engine takes exactly the fault-free code path and its
  /// output is identical to a run without the field.  The plan must
  /// outlive the simulation call.
  const fault::FaultPlan* faults = nullptr;
  /// Boundary model core::run_set dispatches on.  The direct entry points
  /// name their own and read this only in validate().
  EngineKind engine = EngineKind::kSync;
  /// Optional quantum-length policy (Section 9's dynamic-quantum
  /// extension).  Null reproduces the fixed-length setting byte-for-byte.
  /// Sync engine: consulted once per global boundary — with the sole job's
  /// stats when exactly one job ran the quantum, with machine-aggregated
  /// stats otherwise.  Async engine: cloned per job and consulted at that
  /// job's own boundaries.  Reset at the start of the run; must outlive
  /// the simulation call.
  sched::QuantumLengthPolicy* quantum_length_policy = nullptr;
  /// Observability hooks (see obs/obs_config.hpp).  The default — no event
  /// bus — keeps the engine on the exact pre-observability code path; with
  /// a bus attached the engine publishes lifecycle, allocation, quantum
  /// and fault events to its sinks.  Sinks observe only: results are
  /// byte-identical with or without them.  Must outlive the call.
  obs::ObsConfig obs = {};
  /// Hierarchical allocation (0 groups = flat, the default).  When groups
  /// >= 1, core::run_set dispatches to the sharded set engine
  /// (sim/sharded_engine.hpp).
  HierConfig hier = {};
  /// Cluster mode (0 machines = flat, the default).  When machines >= 1,
  /// core::run_set dispatches to the cluster driver
  /// (cluster/cluster_engine.hpp).
  ClusterConfig cluster = {};
  /// Optional cooperative cancellation (see util/cancel.hpp).  Polled at
  /// quantum boundaries; a cancelled run unwinds by throwing
  /// util::CancelledError.  Null — the default — is a strict no-op.  Must
  /// outlive the simulation call.
  const util::CancelToken* cancel = nullptr;
  /// Async engine only: advance in closed-form strides between events
  /// instead of unit strides (see sim/quantum_eval.hpp).  Results are
  /// byte-identical either way, fault plans included — false is the
  /// unit-stride reference mode for the differential tests, not a feature
  /// switch.  The sync engine executes whole quanta in closed form
  /// already and ignores this field.
  bool skip_ahead = true;

  /// check_machine, then check_composition(axes_of(*this)); every closed
  /// driver calls it before it touches a job.
  void validate(std::string_view context) const;
};

/// The axes that decide which loop runs a configuration; all off by default.
struct RunAxes {
  bool async = false;
  bool faults = false;  // a non-empty fault plan or fault scenario
  bool quantum_policy = false;
  bool hier = false;
  bool cluster = false;
  bool open = false;
  bool staggered_release = false;  // a closed schedule other than batched
};

RunAxes axes_of(const SimConfig& config);

/// Throws std::invalid_argument unless processors and quantum length >= 1.
void check_machine(int processors, dag::Steps quantum_length,
                   std::string_view context);

/// The one composition table (simulator.cpp; docs/architecture.md):
/// throws std::invalid_argument, prefixed by `context` and naming both
/// axes, for the first engaged pair no driver runs together.
void check_composition(const RunAxes& axes, std::string_view context);

/// Result of simulating a job set.
struct SimResult {
  /// Per-job traces, in submission order.
  std::vector<JobTrace> jobs;
  /// Completion step of the last job.
  dag::Steps makespan = 0;
  /// Mean of per-job response times (completion − release).
  double mean_response_time = 0.0;
  /// Total wasted processor cycles across all jobs.
  dag::TaskCount total_waste = 0;
  /// Number of global quanta simulated.
  std::int64_t quanta = 0;
  /// Log of applied disturbances; `fault_log.enabled` is true only when
  /// the run had a non-empty fault plan attached.
  fault::FaultLog fault_log;
  /// True when per-quantum allotments are rounded time averages (the
  /// asynchronous engine) rather than constants held for the whole
  /// quantum, in which case instantaneous machine-capacity checks cannot
  /// be reconstructed from the traces.
  bool averaged_allotments = false;
};

/// Simulates the job set to completion.  Each job gets its own clone of the
/// `request` prototype (feedback state is per-job); the stateless execution
/// policy is shared.  The allocator is reset at the start of the run.
SimResult simulate_job_set(std::vector<JobSubmission> submissions,
                           const sched::ExecutionPolicy& execution,
                           const sched::RequestPolicy& request_prototype,
                           alloc::Allocator& allocator,
                           const SimConfig& config);

}  // namespace abg::sim
