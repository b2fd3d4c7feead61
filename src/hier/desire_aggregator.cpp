#include "hier/desire_aggregator.hpp"

#include <stdexcept>

#include "alloc/equipartition.hpp"
#include "alloc/round_robin.hpp"

namespace abg::hier {

std::unique_ptr<alloc::Allocator> make_group_allocator(
    const std::string& name) {
  if (name == "deq") {
    return std::make_unique<alloc::EquiPartition>();
  }
  if (name == "rr") {
    return std::make_unique<alloc::RoundRobin>();
  }
  throw std::invalid_argument("unknown group allocator '" + name +
                              "' (expected deq|rr)");
}

DesireAggregator::DesireAggregator(int groups,
                                   std::unique_ptr<alloc::Allocator> root)
    : groups_(groups), root_(std::move(root)) {
  if (groups_ < 1) {
    throw std::invalid_argument("DesireAggregator: groups must be >= 1");
  }
  if (root_ == nullptr) {
    throw std::invalid_argument("DesireAggregator: null root allocator");
  }
}

std::vector<int> DesireAggregator::split(const std::vector<int>& group_desires,
                                         int total_processors) {
  if (group_desires.size() != static_cast<std::size_t>(groups_)) {
    throw std::invalid_argument(
        "DesireAggregator::split: expected one desire per group");
  }
  std::vector<int> budgets = root_->allocate(group_desires, total_processors);

  int assigned = 0;
  for (const int b : budgets) {
    assigned += b;
  }
  int surplus = total_processors - assigned;
  if (surplus > 0) {
    // All desires were met (the root is conservative): spread the idle
    // remainder so budgets sum to the machine size, rotating the start of
    // the indivisible part so no group is systematically favored.
    const int share = surplus / groups_;
    int extra = surplus % groups_;
    const std::size_t offset = surplus_rotation_ % budgets.size();
    for (std::size_t k = 0; k < budgets.size(); ++k) {
      const std::size_t g = (offset + k) % budgets.size();
      budgets[g] += share;
      if (extra > 0) {
        ++budgets[g];
        --extra;
      }
    }
  }
  ++surplus_rotation_;
  return budgets;
}

}  // namespace abg::hier
