// Desire aggregation: the root of the hierarchical allocation tree.
//
// Cao & Sun's hierarchical scheduling observes that a flat allocator must
// water-fill over every concurrent job each quantum, which stops scaling in
// the tens of thousands of jobs.  The fix is a two-level tree: jobs are
// partitioned into allocation groups, each group's members' desires add up
// to one aggregated desire, the root divides the machine over the
// per-group desires (using any existing alloc::Allocator as the root
// policy), and each group then divides its budget over its members with its
// own allocator.  The root sees G numbers instead of N, and the G group
// problems are independent — which is what lets the sharded engine
// (sim/sharded_engine.hpp) run them on worker threads.
//
// The flat path is the 1-group special case: with one group the root's
// water-fill is trivial, the whole machine becomes the group's budget, and
// the group allocator sees exactly the flat request vector — byte-identical
// to running that allocator directly (the equivalence the golden fixture
// pins).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "alloc/allocator.hpp"

namespace abg::hier {

/// Allocation group of a job: submission indices are dealt to groups
/// round-robin (job i -> group i mod groups).  Requires groups >= 1.
inline std::size_t group_of(std::size_t job, std::size_t groups) {
  return job % groups;
}

/// Builds the allocator a group-level name selects: "deq" (dynamic
/// equi-partitioning) or "rr" (round-robin).  Throws std::invalid_argument
/// on anything else.
std::unique_ptr<alloc::Allocator> make_group_allocator(
    const std::string& name);

/// Divides the machine over the groups' aggregated desires once per
/// rebalance.
///
/// The root allocator is conservative (budget_g <= desire_g), so after its
/// water-fill any surplus means every group's desire was met in full; the
/// surplus is then spread over the groups from a rotating offset so the
/// budgets always sum to exactly the machine size.  Handing unrequested
/// processors to a group is harmless — conservative group allocators leave
/// them idle — and it is what makes the 1-group budget identically P, the
/// flat-equivalence contract.
class DesireAggregator {
 public:
  /// `groups` >= 1; `root` divides the machine over group desires and is
  /// owned by the aggregator.
  DesireAggregator(int groups, std::unique_ptr<alloc::Allocator> root);

  /// Divides `total_processors` over the group desires: root water-fill,
  /// then surplus spread from a rotating offset.  The returned budgets sum
  /// to exactly `total_processors` (when it is non-negative and there is at
  /// least one group).
  std::vector<int> split(const std::vector<int>& group_desires,
                         int total_processors);

 private:
  int groups_;
  std::unique_ptr<alloc::Allocator> root_;
  std::size_t surplus_rotation_ = 0;
};

}  // namespace abg::hier
