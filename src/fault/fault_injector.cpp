#include "fault/fault_injector.hpp"

#include <algorithm>

namespace abg::fault {

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
  plan_.normalize();
}

WindowFaults FaultInjector::advance(dag::Steps from, dag::Steps to) {
  WindowFaults out;
  const std::size_t live_before = revocations_.size();
  std::erase_if(revocations_,
                [from](const Window& w) { return w.end <= from; });
  out.capacity_changed = revocations_.size() != live_before;

  while (next_ < plan_.events.size() && plan_.events[next_].step < to) {
    const FaultEvent& e = plan_.events[next_++];
    out.applied.push_back(e);
    switch (e.kind) {
      case FaultKind::kProcessorFailure:
        failed_ += e.processors;
        out.capacity_changed = true;
        break;
      case FaultKind::kProcessorRepair:
        failed_ = std::max(0, failed_ - e.processors);
        out.capacity_changed = true;
        break;
      case FaultKind::kJobCrash:
        out.crashes.push_back(e);
        break;
      case FaultKind::kAllotmentRevocation: {
        // Duration 0 means "this window only": the cap expires when the
        // next window begins at `to`.
        const dag::Steps end =
            e.duration > 0 ? e.step + e.duration : to;
        revocations_.push_back(
            Window{static_cast<std::size_t>(e.job), e.cap, end});
        out.capacity_changed = true;
        break;
      }
    }
  }
  return out;
}

int FaultInjector::allotment_cap(std::size_t job) const {
  int cap = std::numeric_limits<int>::max();
  for (const Window& w : revocations_) {
    if (w.job == job) {
      cap = std::min(cap, w.cap);
    }
  }
  return cap;
}

dag::Steps FaultInjector::next_change(dag::Steps bound) const {
  if (next_ < plan_.events.size()) {
    bound = std::min(bound, plan_.events[next_].step);
  }
  for (const Window& w : revocations_) {
    bound = std::min(bound, w.end);
  }
  return bound;
}

}  // namespace abg::fault
