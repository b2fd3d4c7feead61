#include "sim/simulator.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "sim/engine_core.hpp"

namespace abg::sim {

namespace {

struct Axis {
  bool RunAxes::*engaged;
  const char* name;  // as messages name it
};

constexpr Axis kAsync{&RunAxes::async, "the async engine"};
constexpr Axis kFaults{&RunAxes::faults, "fault plans"};
constexpr Axis kPolicy{&RunAxes::quantum_policy, "quantum-length policies"};
constexpr Axis kHier{&RunAxes::hier, "hierarchical allocation"};
constexpr Axis kCluster{&RunAxes::cluster, "cluster mode"};
constexpr Axis kOpen{&RunAxes::open, "open streaming"};
constexpr Axis kRelease{&RunAxes::staggered_release, "non-batched release"};

/// The tiered drivers run one sync loop per partition with no fault plan
/// or policy; the open driver streams its own arrivals through one.
constexpr std::pair<Axis, Axis> kForbidden[] = {
    {kHier, kAsync},    {kHier, kFaults},    {kHier, kPolicy},
    {kCluster, kAsync}, {kCluster, kFaults}, {kCluster, kPolicy},
    {kCluster, kHier},  {kOpen, kAsync},     {kOpen, kFaults},
    {kOpen, kPolicy},   {kOpen, kHier},      {kOpen, kCluster},
    {kOpen, kRelease},
};

}  // namespace

RunAxes axes_of(const SimConfig& config) {
  return RunAxes{
      .async = config.engine == EngineKind::kAsync,
      .faults = config.faults != nullptr && !config.faults->empty(),
      .quantum_policy = config.quantum_length_policy != nullptr,
      .hier = config.hier.groups != 0,
      .cluster = config.cluster.machines != 0,
  };
}

void check_composition(const RunAxes& axes, std::string_view context) {
  for (const auto& [a, b] : kForbidden) {
    if (axes.*a.engaged && axes.*b.engaged) {
      throw std::invalid_argument(std::string(context) + ": " + a.name +
                                  " does not compose with " + b.name);
    }
  }
}

void check_machine(int processors, dag::Steps quantum_length,
                   std::string_view context) {
  if (processors < 1 || quantum_length < 1) {
    throw std::invalid_argument(std::string(context) + ": " +
                                (processors < 1 ? "processors"
                                                : "quantum length") +
                                " must be >= 1");
  }
}

void SimConfig::validate(std::string_view context) const {
  check_machine(processors, quantum_length, context);
  check_composition(axes_of(*this), context);
}

SimResult simulate_job_set(std::vector<JobSubmission> submissions,
                           const sched::ExecutionPolicy& execution,
                           const sched::RequestPolicy& request_prototype,
                           alloc::Allocator& allocator,
                           const SimConfig& config) {
  SetRun set = prepare_set(std::move(submissions), request_prototype,
                           allocator, config, "simulate_job_set");
  return QuantumLoop(std::move(set.batch), set.totals.remaining, execution,
                     allocator, set.core)
      .run();
}

}  // namespace abg::sim
