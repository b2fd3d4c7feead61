#include "exp/run_spec.hpp"

#include <stdexcept>

namespace abg::exp {

sim::RunAxes axes_of(const RunSpec& spec) {
  return sim::RunAxes{
      .async = spec.engine == sim::EngineKind::kAsync,
      .faults = spec.faults.scenario != FaultScenario::kNone,
      .hier = spec.hier_groups != 0,
      .cluster = spec.cluster_machines != 0,
      .open = spec.open.arrival != open::ArrivalKind::kNone,
      .staggered_release = spec.workload.release != ReleaseKind::kBatched,
  };
}

std::string to_string(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kAbg:
      return "abg";
    case SchedulerKind::kAGreedy:
      return "a-greedy";
    case SchedulerKind::kAbgAuto:
      return "abg-auto";
    case SchedulerKind::kStatic:
      return "static";
  }
  throw std::invalid_argument("unknown SchedulerKind");
}

std::string to_string(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kJobSet:
      return "job-set";
    case WorkloadKind::kForkJoin:
      return "fork-join";
    case WorkloadKind::kSquareWave:
      return "square-wave";
    case WorkloadKind::kScenario:
      return "scenario";
  }
  throw std::invalid_argument("unknown WorkloadKind");
}

AllocatorKind allocator_kind_from_name(const std::string& name) {
  if (name == "deq" || name == "default") {
    return AllocatorKind::kDefault;
  }
  if (name == "rr" || name == "round-robin") {
    return AllocatorKind::kRoundRobin;
  }
  if (name == "hesrpt") {
    return AllocatorKind::kHesrpt;
  }
  throw std::invalid_argument("unknown allocator '" + name +
                              "' (expected deq, rr, hesrpt)");
}

std::string to_string(FaultScenario scenario) {
  switch (scenario) {
    case FaultScenario::kNone:
      return "none";
    case FaultScenario::kStep:
      return "step";
    case FaultScenario::kImpulse:
      return "impulse";
    case FaultScenario::kPoisson:
      return "poisson";
    case FaultScenario::kCrash:
      return "crash";
  }
  throw std::invalid_argument("unknown FaultScenario");
}

std::string to_string(ReleaseKind kind) {
  switch (kind) {
    case ReleaseKind::kBatched:
      return "batched";
    case ReleaseKind::kStaggered:
      return "staggered";
    case ReleaseKind::kPoisson:
      return "poisson";
  }
  throw std::invalid_argument("unknown ReleaseKind");
}

SchedulerKind scheduler_kind_from_name(const std::string& name) {
  if (name == "abg") {
    return SchedulerKind::kAbg;
  }
  if (name == "a-greedy" || name == "agreedy") {
    return SchedulerKind::kAGreedy;
  }
  if (name == "abg-auto") {
    return SchedulerKind::kAbgAuto;
  }
  if (name == "static") {
    return SchedulerKind::kStatic;
  }
  throw std::invalid_argument("unknown scheduler '" + name +
                              "' (expected abg, a-greedy, abg-auto, static)");
}

WorkloadKind workload_kind_from_name(const std::string& name) {
  if (name == "job-set" || name == "job_set") {
    return WorkloadKind::kJobSet;
  }
  if (name == "fork-join" || name == "fork_join") {
    return WorkloadKind::kForkJoin;
  }
  if (name == "square-wave" || name == "square_wave") {
    return WorkloadKind::kSquareWave;
  }
  if (name == "scenario") {
    return WorkloadKind::kScenario;
  }
  throw std::invalid_argument(
      "unknown workload '" + name +
      "' (expected job-set, fork-join, square-wave, scenario)");
}

FaultScenario fault_scenario_from_name(const std::string& name) {
  if (name == "none") {
    return FaultScenario::kNone;
  }
  if (name == "step") {
    return FaultScenario::kStep;
  }
  if (name == "impulse") {
    return FaultScenario::kImpulse;
  }
  if (name == "poisson") {
    return FaultScenario::kPoisson;
  }
  if (name == "crash") {
    return FaultScenario::kCrash;
  }
  throw std::invalid_argument(
      "unknown fault scenario '" + name +
      "' (expected none, step, impulse, poisson, crash)");
}

ReleaseKind release_kind_from_name(const std::string& name) {
  if (name == "batched") {
    return ReleaseKind::kBatched;
  }
  if (name == "staggered") {
    return ReleaseKind::kStaggered;
  }
  if (name == "poisson") {
    return ReleaseKind::kPoisson;
  }
  throw std::invalid_argument("unknown release schedule '" + name +
                              "' (expected batched, staggered, poisson)");
}

core::SchedulerSpec make_scheduler(SchedulerKind kind,
                                   const SchedulerParams& params) {
  switch (kind) {
    case SchedulerKind::kAbg:
      return core::abg_spec(
          core::AbgConfig{.convergence_rate = params.convergence_rate});
    case SchedulerKind::kAGreedy:
      return core::a_greedy_spec(
          sched::AGreedyConfig{.utilization = params.utilization,
                               .responsiveness = params.responsiveness});
    case SchedulerKind::kAbgAuto:
      return core::abg_auto_spec();
    case SchedulerKind::kStatic:
      return core::static_spec(params.static_processors);
  }
  throw std::invalid_argument("unknown SchedulerKind");
}

}  // namespace abg::exp
