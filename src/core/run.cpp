#include "core/run.hpp"

#include <stdexcept>

#include "alloc/equipartition.hpp"
#include "alloc/unconstrained.hpp"
#include "cluster/cluster_engine.hpp"
#include "sim/async_simulator.hpp"
#include "sim/sharded_engine.hpp"

namespace abg::core {

SchedulerSpec SchedulerSpec::copy() const {
  if (!execution || !request) {
    throw std::logic_error("SchedulerSpec::copy: incomplete spec");
  }
  return SchedulerSpec{name, execution->clone(), request->clone()};
}

SchedulerSpec abg_spec(AbgConfig config) {
  return SchedulerSpec{
      "ABG",
      std::make_unique<sched::BGreedyExecution>(),
      std::make_unique<sched::AControlRequest>(
          sched::AControlConfig{config.convergence_rate})};
}

SchedulerSpec a_greedy_spec(sched::AGreedyConfig config) {
  return SchedulerSpec{"A-Greedy",
                       std::make_unique<sched::GreedyExecution>(),
                       std::make_unique<sched::AGreedyRequest>(config)};
}

SchedulerSpec abg_auto_spec(sched::AutoRateConfig config) {
  return SchedulerSpec{
      "ABG-auto", std::make_unique<sched::BGreedyExecution>(),
      std::make_unique<sched::AutoRateAControlRequest>(config)};
}

SchedulerSpec static_spec(int processors) {
  return SchedulerSpec{"static-" + std::to_string(processors),
                       std::make_unique<sched::BGreedyExecution>(),
                       std::make_unique<sched::StaticRequest>(processors)};
}

sim::JobTrace run_single(const SchedulerSpec& spec, dag::Job& job,
                         const sim::SingleJobConfig& config,
                         alloc::Allocator* allocator) {
  if (!spec.execution || !spec.request) {
    throw std::invalid_argument("run_single: incomplete scheduler spec");
  }
  alloc::Unconstrained fallback;
  alloc::Allocator& alloc_ref = allocator ? *allocator : fallback;
  // Clone the request policy so the spec itself stays reusable.
  const std::unique_ptr<sched::RequestPolicy> request = spec.request->clone();
  return sim::run_single_job(job, *spec.execution, *request, alloc_ref,
                             config);
}

sim::SimResult run_set(const SchedulerSpec& spec,
                       std::vector<sim::JobSubmission> submissions,
                       const sim::SimConfig& config,
                       alloc::Allocator* allocator) {
  if (!spec.execution || !spec.request) {
    throw std::invalid_argument("run_set: incomplete scheduler spec");
  }
  alloc::EquiPartition fallback;
  alloc::Allocator& alloc_ref = allocator ? *allocator : fallback;
  if (config.cluster.machines != 0) {
    // Cluster mode: the cluster driver validates the rest of the config.
    return cluster::simulate_job_set_cluster(std::move(submissions),
                                             *spec.execution, *spec.request,
                                             alloc_ref, config);
  }
  if (config.hier.groups != 0) {
    // Hierarchical allocation: the sharded engine validates the rest of
    // the config.
    return sim::simulate_job_set_sharded(std::move(submissions),
                                         *spec.execution, *spec.request,
                                         alloc_ref, config);
  }
  if (config.engine == sim::EngineKind::kAsync) {
    return sim::simulate_job_set_async(std::move(submissions), *spec.execution,
                                       *spec.request, alloc_ref, config);
  }
  return sim::simulate_job_set(std::move(submissions), *spec.execution,
                               *spec.request, alloc_ref, config);
}

open::OpenResult run_open(const SchedulerSpec& spec,
                          const open::OpenConfig& config, std::uint64_t seed,
                          const open::JobFactory& factory,
                          alloc::Allocator* allocator) {
  if (!spec.execution || !spec.request) {
    throw std::invalid_argument("run_open: incomplete scheduler spec");
  }
  alloc::EquiPartition fallback;
  alloc::Allocator& alloc_ref = allocator ? *allocator : fallback;
  if (factory) {
    return open::run_stream(*spec.execution, *spec.request, factory,
                            alloc_ref, config, seed);
  }
  return open::run_stream(*spec.execution, *spec.request,
                          open::default_open_job_factory(
                              config.quantum_length),
                          alloc_ref, config, seed);
}

}  // namespace abg::core
