// Availability-profile allocator: the trim-analysis adversary.
//
// Trim analysis (Section 6.1) limits the power of an OS allocator that can
// behave adversarially — e.g. offer many processors exactly when the job's
// parallelism is low.  This allocator replays a per-quantum availability
// sequence p(1), p(2), ... (clamping to the final value when the run is
// longer than the profile) and grants each job min{d(q), remaining
// availability} in order.  It is conservative but deliberately neither fair
// nor non-reserving, so tests can construct the adversarial schedules the
// theorems must survive.
#pragma once

#include <vector>

#include "alloc/allocator.hpp"

namespace abg::alloc {

class AvailabilityProfile final : public PositionFreeAllocator {
 public:
  /// `availability[q-1]` is the processor availability p(q) of quantum q.
  /// Must be non-empty with non-negative entries.
  explicit AvailabilityProfile(std::vector<int> availability);

  std::vector<int> allocate(const std::vector<int>& requests,
                            int total_processors) override;
  int pool(int total_processors) const override;
  void reset() override { quantum_ = 0; }
  std::string_view name() const override { return "availability-profile"; }
  std::unique_ptr<Allocator> clone() const override;

  /// The availability that was (or will be) offered in quantum q (1-based).
  int availability_at(std::size_t q) const;

 private:
  std::vector<int> availability_;
  std::size_t quantum_ = 0;  // quanta served so far
};

}  // namespace abg::alloc
