// FaultInjector: replays a FaultPlan against a running simulation.
//
// The injector is the stateful walker the engines consult once per
// scheduling window: advance(from, to) consumes every event whose step
// falls in [from, to), updates the failed-processor count and the active
// revocation windows, and hands back the crashes the engine must apply.
// Capacity and revocation caps are then queried for the window just
// advanced to.  Windows must be advanced in non-decreasing order.
#pragma once

#include <limits>
#include <vector>

#include "fault/fault_plan.hpp"

namespace abg::fault {

/// Events that fired within one advanced window.
struct WindowFaults {
  /// Crash events to apply to currently active jobs.
  std::vector<FaultEvent> crashes;
  /// Every event consumed in the window (crashes included), for logging.
  std::vector<FaultEvent> applied;
  /// True when machine capacity or any revocation cap changed, i.e. the
  /// engine should re-partition even without a job-side event.
  bool capacity_changed = false;
};

class FaultInjector {
 public:
  /// Copies and normalizes the plan (throws std::invalid_argument on a
  /// malformed plan).
  explicit FaultInjector(FaultPlan plan);

  /// Consumes events with step in [from, to) and expires revocation
  /// windows ending at or before `from`.  Requires `to` to be
  /// non-decreasing across calls.
  WindowFaults advance(dag::Steps from, dag::Steps to);

  /// Machine capacity given `total` physical processors: total minus the
  /// currently failed ones, floored at 0.
  int capacity(int total) const {
    return failed_ < total ? total - failed_ : 0;
  }

  /// Currently failed processors.
  int failed_processors() const { return failed_; }

  /// Allotment ceiling for `job` under the revocation windows active in
  /// the most recently advanced window; INT_MAX when unconstrained.
  int allotment_cap(std::size_t job) const;

  /// True when any revocation window is currently active.
  bool revocation_active() const { return !revocations_.empty(); }

  /// The first step at which advance() can change anything: the next
  /// unconsumed event's step or the earliest end of a live revocation
  /// window, capped at `bound`.  A revocation consumed late (its window
  /// advanced past its step) can already have ended, so the result may
  /// lie at or before the start of the last advanced window.
  dag::Steps next_change(dag::Steps bound) const;

  const FaultPlan& plan() const { return plan_; }

 private:
  struct Window {
    std::size_t job;
    int cap;
    dag::Steps end;
  };

  FaultPlan plan_;
  std::size_t next_ = 0;
  int failed_ = 0;
  std::vector<Window> revocations_;
};

}  // namespace abg::fault
