// OS-level processor allocators (the system half of the two-level
// framework).
//
// Between quanta the allocator converts the jobs' processor requests into
// allotments.  Following the paper, all allocators here are *conservative*
// (never allot more than requested: a(q) <= d(q)).  The properties the
// analysis needs (Section 5.1):
//   * fair          — all jobs get an equal number of processors unless a
//                     job requests fewer;
//   * non-reserving — no processor stays idle while some job wants more.
// Dynamic equi-partitioning satisfies both.
#pragma once

#include <cstddef>
#include <memory>
#include <string_view>
#include <vector>

namespace abg::alloc {

/// Strategy for dividing P processors among competing job requests, invoked
/// once per scheduling quantum.
class Allocator {
 public:
  virtual ~Allocator() = default;

  /// Returns one allotment per request, in order.  Every allotment is
  /// in [0, request_i], and implementations never exceed the machine size
  /// (the availability-profile allocator may offer fewer than
  /// `total_processors`).  Called exactly once per quantum, in quantum
  /// order.  Requires non-negative requests and total_processors >= 0.
  virtual std::vector<int> allocate(const std::vector<int>& requests,
                                    int total_processors) = 0;

  /// Processor pool the allocator will draw on for the *next* quantum —
  /// `total_processors` unless the allocator imposes its own availability
  /// (see AvailabilityProfile).  The simulation engine uses this to record
  /// per-job processor availability p(q) for trim analysis.
  virtual int pool(int total_processors) const { return total_processors; }

  /// Resets any cross-quantum state (rotation offsets, profile position).
  virtual void reset() {}

  /// True when the allocator wants remaining-size information; engines
  /// then call allocate_sized instead of allocate.  Request-only
  /// allocators (the default) never see sizes, so their call pattern is
  /// unchanged.
  virtual bool size_aware() const { return false; }

  /// Size-aware allocation: `remaining[i]` is job i's remaining work (0
  /// for jobs with no request).  The base implementation ignores the
  /// sizes and defers to allocate(), so decorators can forward
  /// unconditionally.  The conservative contract (allotment <= request)
  /// applies unchanged.
  virtual std::vector<int> allocate_sized(const std::vector<int>& requests,
                                          const std::vector<double>& remaining,
                                          int total_processors) {
    (void)remaining;
    return allocate(requests, total_processors);
  }

  /// Slot-aware allocation over the active slots of a batch of
  /// `slot_count` slots.  `slots` holds the active slot ids in strictly
  /// ascending order and `requests[k]` is slot `slots[k]`'s request; every
  /// other slot requests 0.  `remaining` is null for a request-only call,
  /// or one remaining-work entry per active slot for a size-aware one
  /// (the engine passes it exactly when size_aware()).  Returns one
  /// allotment per active slot, in the order of `slots`.
  ///
  /// The default is exact for every allocator: it scatters the compact
  /// lists into full-length vectors (0 for the inactive slots), calls
  /// allocate() or allocate_sized(), and gathers the active slots'
  /// allotments.  Positional allocators keep it, because their state is
  /// indexed by slot: RoundRobin's cursor over n.  Allocators whose result
  /// depends only on the order of the positive requests derive from
  /// PositionFreeAllocator and run on the compact lists in O(active):
  /// EquiPartition, HeSrpt, Unconstrained and AvailabilityProfile.
  /// FaultyAllocator forwards the compact call and caps each allotment by
  /// its slot id.  Each override returns what the default would, call for
  /// call, so allocator state (rotations, profile position) advances
  /// identically either way.
  virtual std::vector<int> allocate_slots(const std::vector<std::size_t>& slots,
                                          const std::vector<int>& requests,
                                          const std::vector<double>* remaining,
                                          std::size_t slot_count,
                                          int total_processors);

  /// Human-readable allocator name.
  virtual std::string_view name() const = 0;

  virtual std::unique_ptr<Allocator> clone() const = 0;
};

/// Base of the allocators whose result depends only on the order of the
/// positive requests, never on slot positions.  Their allocate_slots runs
/// allocate() or allocate_sized() on the compact lists directly, which
/// is exactly what the scatter default would return.
class PositionFreeAllocator : public Allocator {
 public:
  std::vector<int> allocate_slots(const std::vector<std::size_t>& slots,
                                  const std::vector<int>& requests,
                                  const std::vector<double>* remaining,
                                  std::size_t slot_count,
                                  int total_processors) final;
};

/// Validates allocator inputs; shared by implementations.
void validate_allocation_inputs(const std::vector<int>& requests,
                                int total_processors);

}  // namespace abg::alloc
