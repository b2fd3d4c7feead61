// Observability events.
//
// One flat event record covers everything the simulation engines report:
// run lifecycle, job lifecycle (submit/admit/complete/crash), allocation
// decisions, per-quantum measurements and applied fault events.  The
// engines publish these through an obs::EventBus (see event_bus.hpp) at
// the points where the corresponding state change is committed; a run
// without a bus attached publishes nothing and takes exactly the
// pre-observability code path.
//
// Events are observation-only: no sink can influence the simulation, so
// attaching or detaching sinks never changes results — the golden-artifact
// tests pin this.
#pragma once

#include <cstdint>

#include "dag/job.hpp"
#include "fault/fault_plan.hpp"
#include "sched/quantum_stats.hpp"

namespace abg::obs {

/// What happened.  Field validity per kind is documented on Event.
enum class EventKind : std::uint8_t {
  /// The engine loop is about to start (after intake).
  kRunStart,
  /// One job entered the run (emitted per job right after kRunStart).
  kJobSubmit,
  /// A queued job was admitted to the active set.
  kJobAdmit,
  /// The allocator partitioned the machine over the active requests.
  kAllocation,
  /// One quantum of one job completed (including crash-voided and
  /// checkpoint-truncated quanta; the stats are what entered the trace).
  kQuantum,
  /// A job finished.
  kJobComplete,
  /// A job crash was applied to a running job.
  kJobCrash,
  /// A non-crash fault event (failure / repair / revocation) was applied.
  kFault,
  /// The hierarchical root re-split the machine over the groups'
  /// aggregated desires (sharded engine; once per rebalance epoch, from
  /// the coordinator thread between group barriers).
  kHierRebalance,
  /// Per-group utilization summary of a completed sharded run (one per
  /// group, before kRunEnd; job = group index).
  kHierGroupSummary,
  /// An open-system arrival entered the backlog (streaming engine; one
  /// per generated job, at the boundary that first saw its release).
  kOpenArrival,
  /// An open-system job completed and its runtime state was retired
  /// (streaming engine; carries the response time).
  kOpenDeparture,
  /// Aggregate open-run summary (streaming engine; once, before kRunEnd).
  kOpenSummary,
  /// The cluster router placed one submission on a machine (cluster
  /// driver; one per job, in submission order, from the coordinator
  /// thread before the machine loops start).
  kClusterRoute,
  /// The imbalance pass migrated a queued job between machines (cluster
  /// driver; at an epoch boundary, from the coordinator thread).
  kClusterMigrate,
  /// Per-machine utilization summary of a completed cluster run (one per
  /// machine, before kRunEnd; job = machine index).
  kClusterMachineSummary,
  /// The run completed; aggregate results are final.
  kRunEnd,
};

/// One observation.  `kind` and `step` are always valid; the remaining
/// fields are grouped by the kinds that set them and are default elsewhere.
struct Event {
  EventKind kind = EventKind::kRunStart;
  /// Global simulation step the event is anchored at.
  dag::Steps step = 0;
  /// Submission index of the job concerned (-1 for machine-level events).
  std::int64_t job = -1;

  // kRunStart
  int processors = 0;
  dag::Steps quantum_length = 0;
  std::int64_t job_count = 0;

  // kJobSubmit
  dag::TaskCount work = 0;
  dag::Steps critical_path = 0;

  // kJobAdmit
  int desire = 0;

  // kAllocation / kHierRebalance (pool = machine size; assigned = sum of
  // group budgets; desire = sum of aggregated group desires)
  int pool = 0;
  int assigned = 0;
  std::int64_t active_jobs = 0;

  // kHierRebalance / kHierGroupSummary
  int hier_groups = 0;
  /// kHierGroupSummary: processor cycles the group's jobs held over the
  /// run (work reuses the kJobSubmit field for cycles actually executed).
  dag::TaskCount allotted_cycles = 0;

  // kQuantum — points at the stats record as it entered the trace.  Valid
  // only for the duration of the sink callback; copy what you keep.
  const sched::QuantumStats* stats = nullptr;

  // kJobCrash
  dag::TaskCount lost_work = 0;
  /// Step from which the crashed job may be re-admitted.
  dag::Steps restart_step = 0;

  // kFault
  fault::FaultKind fault = fault::FaultKind::kProcessorFailure;

  // kOpenArrival / kOpenDeparture: jobs in the open system (queued +
  // active) right after the event.
  std::int64_t in_system = 0;
  // kOpenDeparture: completion − release of the departing job (work
  // reuses the kJobSubmit field for its executed work).
  dag::Steps response = 0;

  // kClusterRoute / kClusterMigrate / kClusterMachineSummary
  int cluster_machines = 0;
  /// Machine the job landed on (route/migrate) or the summarized machine.
  /// kClusterRoute: `work` reuses the kJobSubmit field for the cumulative
  /// work routed to that machine; kClusterMachineSummary: `work` is the
  /// cycles the machine executed, `allotted_cycles` the cycles it handed
  /// out, `processors` its size, `active_jobs` the jobs that finished on
  /// it.
  std::int64_t machine = -1;
  /// kClusterMigrate: source machine.
  std::int64_t machine_from = -1;
  /// kClusterMigrate: transfer debt charged to the migrated job (steps of
  /// delayed eligibility; its reallocation debt on re-placement is charged
  /// by the engine on admission).
  dag::Steps debt_steps = 0;

  // kOpenSummary
  std::int64_t open_admitted = 0;
  std::int64_t open_completed = 0;
  std::int64_t open_high_water = 0;

  // kRunEnd
  dag::Steps makespan = 0;
};

}  // namespace abg::obs
