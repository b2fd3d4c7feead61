#include "sim/sharded_engine.hpp"

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "hier/desire_aggregator.hpp"
#include "obs/event_bus.hpp"
#include "obs/profile.hpp"
#include "sim/partitioned_driver.hpp"

namespace abg::sim {

namespace {

constexpr const char* kContext = "simulate_job_set_sharded";

}  // namespace

SimResult simulate_job_set_sharded(
    std::vector<JobSubmission> submissions,
    const sched::ExecutionPolicy& execution,
    const sched::RequestPolicy& request_prototype,
    alloc::Allocator& allocator, const SimConfig& config) {
  config.validate(kContext);
  if (config.hier.groups < 1) {
    throw std::invalid_argument(std::string(kContext) +
                                ": hier groups must be >= 1");
  }
  if (config.hier.rebalance_quanta < 1) {
    throw std::invalid_argument(std::string(kContext) +
                                ": hier rebalance epoch must be >= 1 quanta");
  }
  allocator.reset();
  const auto group_count = static_cast<std::size_t>(config.hier.groups);

  PartitionedRun run;
  run.context = kContext;
  run.processors = config.processors;
  for (std::size_t i = 0; i < submissions.size(); ++i) {
    run.partition_of.push_back(hier::group_of(i, group_count));
  }
  // Every group sees the whole machine's shape; its budget is its share.
  run.shapes.assign(group_count, ClusterMachine{config.processors, {}});
  // The tree: a root clone for the aggregator plus one allocator clone
  // per group — of the named group allocator, or of the machine allocator
  // (which is what makes 1 group ≡ flat under the same allocator).
  run.make_allocator = [&]() -> std::unique_ptr<alloc::Allocator> {
    if (config.hier.allocator.empty()) {
      return allocator.clone();
    }
    return hier::make_group_allocator(config.hier.allocator);
  };
  run.epoch_quanta = config.hier.rebalance_quanta;
  run.threads = config.hier.threads;
  run.worker_busy_seconds = config.hier.worker_busy_seconds;

  hier::DesireAggregator aggregator(config.hier.groups, run.make_allocator());
  std::vector<int> desires(group_count, 0);
  run.budgets = [&](const std::vector<Partition>& groups,
                    const Epoch& epoch) {
    std::vector<int> budgets;
    {
      // Desire aggregation + root split, timed as the coordination cost of
      // the epoch (the serial section between parallel group phases).
      std::optional<obs::Profiler::Scope> scope;
      if (config.hier.profiler != nullptr) {
        scope.emplace(config.hier.profiler, "hier.rebalance", 1);
      }
      for (std::size_t g = 0; g < group_count; ++g) {
        desires[g] = groups[g].loop.aggregated_desire(epoch.end);
      }
      budgets = aggregator.split(desires, config.processors);
    }
    if (epoch.bus != nullptr) {
      obs::Event e;
      e.kind = obs::EventKind::kHierRebalance;
      e.step = epoch.start;
      e.hier_groups = config.hier.groups;
      e.pool = config.processors;
      for (const int b : budgets) {
        e.assigned += b;
      }
      for (const int d : desires) {
        e.desire += d;
      }
      for (const Partition& group : groups) {
        if (group.loop.remaining > 0) {
          ++e.active_jobs;  // live groups this epoch
        }
      }
      epoch.bus->publish(e);
    }
    return budgets;
  };
  run.publish_summary = [&](obs::EventBus& bus,
                            const std::vector<Partition>& groups) {
    for (std::size_t g = 0; g < group_count; ++g) {
      const QuantumLoop& loop = groups[g].loop;
      obs::Event e;
      e.kind = obs::EventKind::kHierGroupSummary;
      e.step = loop.now;
      e.job = static_cast<std::int64_t>(g);
      e.hier_groups = config.hier.groups;
      e.work = loop.executed_work;
      e.allotted_cycles = loop.allotted_cycles;
      e.active_jobs = static_cast<std::int64_t>(loop.batch.size());
      bus.publish(e);
    }
  };
  return run_partitioned(std::move(submissions), run, execution,
                         request_prototype, config);
}

}  // namespace abg::sim
