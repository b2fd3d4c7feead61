#include "obs/metrics_sink.hpp"

namespace abg::obs {

void MetricsSink::on_event(const Event& event) {
  MetricsRegistry& reg = *registry_;
  switch (event.kind) {
    case EventKind::kRunStart:
      reg.counter("sim.runs").add();
      reg.gauge("sim.processors").set(static_cast<double>(event.processors));
      break;
    case EventKind::kJobSubmit:
      reg.counter("sim.jobs_submitted").add();
      reg.histogram("job.work").observe(static_cast<double>(event.work));
      reg.histogram("job.critical_path")
          .observe(static_cast<double>(event.critical_path));
      break;
    case EventKind::kJobAdmit:
      reg.counter("sim.admissions").add();
      break;
    case EventKind::kAllocation:
      reg.counter("sim.allocations").add();
      reg.histogram("alloc.assigned")
          .observe(static_cast<double>(event.assigned));
      reg.histogram("alloc.active_jobs")
          .observe(static_cast<double>(event.active_jobs));
      if (event.pool > 0) {
        reg.histogram("alloc.utilization_pct")
            .observe(100.0 * static_cast<double>(event.assigned) /
                     static_cast<double>(event.pool));
      }
      break;
    case EventKind::kQuantum: {
      const sched::QuantumStats& q = *event.stats;
      reg.counter("sim.quanta").add();
      reg.counter("sim.steps").add(q.steps_used);
      reg.counter("sim.work").add(static_cast<std::int64_t>(q.work));
      if (q.deprived()) {
        reg.counter("sim.deprived_quanta").add();
      }
      reg.histogram("quantum.request")
          .observe(static_cast<double>(q.request));
      reg.histogram("quantum.allotment")
          .observe(static_cast<double>(q.allotment));
      reg.histogram("quantum.length")
          .observe(static_cast<double>(q.length));
      reg.histogram("quantum.waste").observe(static_cast<double>(q.waste()));
      break;
    }
    case EventKind::kJobComplete:
      reg.counter("sim.completions").add();
      break;
    case EventKind::kJobCrash:
      reg.counter("fault.crashes").add();
      reg.counter("fault.lost_work")
          .add(static_cast<std::int64_t>(event.lost_work));
      break;
    case EventKind::kFault:
      switch (event.fault) {
        case fault::FaultKind::kProcessorFailure:
          reg.counter("fault.failures").add();
          break;
        case fault::FaultKind::kProcessorRepair:
          reg.counter("fault.repairs").add();
          break;
        case fault::FaultKind::kAllotmentRevocation:
          reg.counter("fault.revocations").add();
          break;
        case fault::FaultKind::kJobCrash:
          break;  // applied crashes arrive as kJobCrash
      }
      break;
    case EventKind::kHierRebalance:
      reg.counter("hier.rebalances").add();
      reg.gauge("hier.groups").set(static_cast<double>(event.hier_groups));
      reg.histogram("hier.aggregate_desire")
          .observe(static_cast<double>(event.desire));
      if (event.pool > 0) {
        reg.histogram("hier.budget_utilization_pct")
            .observe(100.0 * static_cast<double>(event.assigned) /
                     static_cast<double>(event.pool));
      }
      break;
    case EventKind::kHierGroupSummary:
      reg.counter("hier.group_summaries").add();
      if (event.allotted_cycles > 0) {
        reg.histogram("hier.group_utilization_pct")
            .observe(100.0 * static_cast<double>(event.work) /
                     static_cast<double>(event.allotted_cycles));
      }
      break;
    case EventKind::kOpenArrival:
      reg.counter("open.arrivals").add();
      reg.histogram("open.in_system")
          .observe(static_cast<double>(event.in_system));
      break;
    case EventKind::kOpenDeparture:
      reg.counter("open.completed").add();
      reg.histogram("open.response")
          .observe(static_cast<double>(event.response));
      reg.histogram("open.job_work").observe(static_cast<double>(event.work));
      reg.histogram("open.in_system")
          .observe(static_cast<double>(event.in_system));
      break;
    case EventKind::kOpenSummary:
      reg.counter("open.admitted").add(event.open_admitted);
      reg.gauge("open.in_system_high_water")
          .set(static_cast<double>(event.open_high_water));
      break;
    case EventKind::kClusterRoute:
      reg.counter("cluster.routes").add();
      reg.gauge("cluster.machines")
          .set(static_cast<double>(event.cluster_machines));
      break;
    case EventKind::kClusterMigrate:
      reg.counter("cluster.migrations").add();
      reg.counter("cluster.migration_debt_steps")
          .add(static_cast<std::int64_t>(event.debt_steps));
      break;
    case EventKind::kClusterMachineSummary:
      reg.counter("cluster.machine_summaries").add();
      reg.histogram("cluster.machine_jobs")
          .observe(static_cast<double>(event.active_jobs));
      if (event.allotted_cycles > 0) {
        reg.histogram("cluster.machine_utilization_pct")
            .observe(100.0 * static_cast<double>(event.work) /
                     static_cast<double>(event.allotted_cycles));
      }
      break;
    case EventKind::kRunEnd:
      reg.gauge("sim.makespan").set(static_cast<double>(event.makespan));
      break;
  }
}

}  // namespace abg::obs
