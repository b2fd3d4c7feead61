// Random fault plans for the randomized engine tests.
#pragma once

#include "fault/fault_plan.hpp"
#include "util/rng.hpp"

namespace abg::test {

/// A random fault plan for `jobs` submissions on `processors` processors,
/// with every event within the first `horizon` steps: failures, repairs,
/// crashes, and revocations of duration 0 (one window) and > 0; either
/// work loss, either restart policy, and a restart delay.  Failures never
/// take the last processor, so every run can finish.
inline fault::FaultPlan random_fault_plan(util::Rng& rng, int jobs,
                                          int processors,
                                          dag::Steps horizon) {
  fault::FaultPlan plan;
  int failable = processors - 1;
  const auto events = rng.uniform_int(1, 12);
  for (int e = 0; e < events; ++e) {
    fault::FaultEvent event;
    event.step = rng.uniform_int(0, horizon);
    switch (rng.uniform_int(0, 4)) {
      case 0:
        if (failable > 0) {
          event.kind = fault::FaultKind::kProcessorFailure;
          event.processors = static_cast<int>(rng.uniform_int(1, failable));
          failable -= event.processors;
          break;
        }
        [[fallthrough]];
      case 1:
        event.kind = fault::FaultKind::kProcessorRepair;
        event.processors = static_cast<int>(rng.uniform_int(1, processors));
        break;
      case 2:
        event.kind = fault::FaultKind::kJobCrash;
        event.job = static_cast<int>(rng.uniform_int(0, jobs - 1));
        break;
      default:
        event.kind = fault::FaultKind::kAllotmentRevocation;
        event.job = static_cast<int>(rng.uniform_int(0, jobs - 1));
        event.cap = static_cast<int>(rng.uniform_int(0, processors));
        event.duration = rng.bernoulli(0.4) ? 0 : rng.uniform_int(1, 120);
        break;
    }
    plan.events.push_back(event);
  }
  plan.work_loss = rng.bernoulli(0.5) ? fault::WorkLoss::kCheckpointQuantum
                                      : fault::WorkLoss::kRestartFromScratch;
  plan.policy_on_restart = rng.bernoulli(0.5)
                               ? fault::PolicyOnRestart::kPreserve
                               : fault::PolicyOnRestart::kReset;
  plan.restart_delay = rng.bernoulli(0.5) ? 0 : rng.uniform_int(1, 60);
  return plan;
}

}  // namespace abg::test
