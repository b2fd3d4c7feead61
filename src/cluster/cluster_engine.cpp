#include "cluster/cluster_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "cluster/cluster_spec.hpp"
#include "cluster/router.hpp"
#include "obs/event_bus.hpp"
#include "sim/partitioned_driver.hpp"

namespace abg::cluster {

namespace {

constexpr const char* kContext = "simulate_job_set_cluster";

/// Queued job the imbalance pass migrates next: the back of the donor's
/// FCFS queue (highest eligible step, ties by highest slot index), so the
/// head of the queue — the next admission — is never reordered.
std::size_t pick_migration_slot(const sim::JobBatch& batch) {
  std::size_t best = batch.size();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch.regime[i] != sim::JobRegime::kQueued) {
      continue;
    }
    if (best == batch.size() ||
        batch.eligible_step[i] >= batch.eligible_step[best]) {
      best = i;
    }
  }
  return best;
}

/// Imbalance pass after an epoch: migrates the backs of over-quota
/// machines' queues toward machines with slack, one conservative desire
/// unit at a time, until neither side qualifies.  Each move charges one
/// quantum of transfer debt: the job becomes eligible a quantum past the
/// epoch end, and its previous allotment on the new machine is zero.
void migrate_queued(std::vector<sim::Partition>& machines,
                    const sim::Epoch& epoch, dag::Steps quantum_length) {
  const std::size_t machine_count = machines.size();
  const dag::Steps horizon = epoch.end + (epoch.end - epoch.start);
  std::vector<int> pressure(machine_count, 0);
  std::size_t slots = 0;  // bounds the moves: a job moves at most once
  for (std::size_t m = 0; m < machine_count; ++m) {
    pressure[m] = machines[m].loop.aggregated_desire(horizon) -
                  machines[m].loop.shape.processors;
    slots += machines[m].loop.batch.size();
  }
  for (std::size_t moved = 0; moved < slots; ++moved) {
    std::size_t donor = machine_count;
    std::size_t donor_slot = 0;
    for (std::size_t m = 0; m < machine_count; ++m) {
      if (pressure[m] <= 0 ||
          (donor != machine_count && pressure[m] <= pressure[donor])) {
        continue;
      }
      const std::size_t slot = pick_migration_slot(machines[m].loop.batch);
      if (slot != machines[m].loop.batch.size()) {
        donor = m;
        donor_slot = slot;
      }
    }
    std::size_t recv = machine_count;
    for (std::size_t m = 0; m < machine_count; ++m) {
      if (pressure[m] < 0 &&
          (recv == machine_count || pressure[m] < pressure[recv])) {
        recv = m;
      }
    }
    if (donor == machine_count || recv == machine_count) {
      break;
    }
    sim::Partition& from = machines[donor];
    sim::Partition& to = machines[recv];
    const std::size_t orig = from.original[donor_slot];
    const dag::Steps eligible =
        std::max(from.loop.batch.eligible_step[donor_slot], epoch.end) +
        quantum_length;
    from.loop.transfer_queued(donor_slot, to.loop, eligible);
    to.original.push_back(orig);
    from.original[donor_slot] = sim::kMovedAway;
    pressure[donor] -= 1;
    pressure[recv] += 1;
    if (epoch.bus != nullptr) {
      obs::Event e;
      e.kind = obs::EventKind::kClusterMigrate;
      e.step = epoch.end;
      e.job = static_cast<std::int64_t>(orig);
      e.cluster_machines = static_cast<int>(machine_count);
      e.machine = static_cast<std::int64_t>(recv);
      e.machine_from = static_cast<std::int64_t>(donor);
      e.debt_steps = quantum_length;
      epoch.bus->publish(e);
    }
  }
}

}  // namespace

sim::SimResult simulate_job_set_cluster(
    std::vector<sim::JobSubmission> submissions,
    const sched::ExecutionPolicy& execution,
    const sched::RequestPolicy& request_prototype,
    alloc::Allocator& allocator, const sim::SimConfig& config) {
  config.validate(kContext);
  if (config.cluster.migration_period < 0) {
    throw std::invalid_argument(std::string(kContext) +
                                ": migration period must be >= 0 quanta");
  }
  const ClusterSpec spec = ClusterSpec::resolve(config, kContext);
  const std::unique_ptr<Router> router = make_router(config.cluster.router);
  allocator.reset();
  const std::size_t machine_count = spec.machines.size();

  // Route every submission once, in submission order, on this thread.
  sim::PartitionedRun run;
  std::vector<MachineLoad> loads(machine_count);
  for (std::size_t m = 0; m < machine_count; ++m) {
    loads[m].processors = spec.machines[m].processors;
  }
  for (std::size_t i = 0; i < submissions.size(); ++i) {
    if (submissions[i].job == nullptr) {
      throw std::invalid_argument(std::string(kContext) + ": null job");
    }
    RouteRequest request;
    request.submission_index = i;
    request.work = submissions[i].job->total_work();
    request.critical_path = submissions[i].job->critical_path();
    request.release_step = submissions[i].release_step;
    request.job_class = submissions[i].name;
    const std::size_t m = router->route(request, loads);
    if (m >= machine_count) {
      throw std::logic_error(std::string(kContext) + ": router '" +
                             std::string(router->name()) +
                             "' chose machine " + std::to_string(m) +
                             " of " + std::to_string(machine_count));
    }
    run.partition_of.push_back(m);
    loads[m].assigned_work += request.work;
    loads[m].assigned_jobs += 1;
    loads[m].assigned_desire +=
        equilibrium_desire(request.work, request.critical_path);
  }

  run.context = kContext;
  run.processors = spec.total_processors();
  run.shapes = spec.machines;
  run.make_allocator = [&allocator] { return allocator.clone(); };
  // Machine loops are coupled only through migration, so the epoch length
  // is the migration period; with migration off any epoch length yields
  // identical traces and 16 quanta just bounds coordinator overhead.
  run.epoch_quanta = config.cluster.migration_period > 0
                         ? config.cluster.migration_period
                         : 16;
  run.threads = config.cluster.threads;
  if (config.cluster.migration_period > 0 && machine_count > 1) {
    run.after_epoch = [&config](std::vector<sim::Partition>& machines,
                                const sim::Epoch& epoch) {
      migrate_queued(machines, epoch, config.quantum_length);
    };
  }
  // One route event per job, in submission order, with the cumulative
  // routed work of its machine (the per-machine counter tracks).
  run.publish_intake = [&](obs::EventBus& bus,
                           const std::vector<const sim::JobTrace*>& traces) {
    std::vector<dag::TaskCount> routed(machine_count, 0);
    for (std::size_t i = 0; i < traces.size(); ++i) {
      const std::size_t m = run.partition_of[i];
      routed[m] += traces[i]->work;
      obs::Event e;
      e.kind = obs::EventKind::kClusterRoute;
      e.step = traces[i]->release_step;
      e.job = static_cast<std::int64_t>(i);
      e.cluster_machines = static_cast<int>(machine_count);
      e.machine = static_cast<std::int64_t>(m);
      e.work = routed[m];
      bus.publish(e);
    }
  };
  run.publish_summary = [machine_count](
                            obs::EventBus& bus,
                            const std::vector<sim::Partition>& machines) {
    for (std::size_t m = 0; m < machine_count; ++m) {
      const sim::QuantumLoop& loop = machines[m].loop;
      obs::Event e;
      e.kind = obs::EventKind::kClusterMachineSummary;
      e.step = loop.now;
      e.job = static_cast<std::int64_t>(m);
      e.cluster_machines = static_cast<int>(machine_count);
      e.machine = static_cast<std::int64_t>(m);
      e.processors = loop.shape.processors;
      e.work = loop.executed_work;
      e.allotted_cycles = loop.allotted_cycles;
      for (const std::size_t orig : machines[m].original) {
        e.active_jobs += orig != sim::kMovedAway ? 1 : 0;  // finished here
      }
      bus.publish(e);
    }
  };
  return sim::run_partitioned(std::move(submissions), run, execution,
                              request_prototype, config);
}

}  // namespace abg::cluster
