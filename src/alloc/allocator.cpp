#include "alloc/allocator.hpp"

#include <stdexcept>

namespace abg::alloc {

void validate_allocation_inputs(const std::vector<int>& requests,
                                int total_processors) {
  if (total_processors < 0) {
    throw std::invalid_argument("Allocator: negative machine size");
  }
  for (const int d : requests) {
    if (d < 0) {
      throw std::invalid_argument("Allocator: negative request");
    }
  }
}

std::vector<int> Allocator::allocate_slots(
    const std::vector<std::size_t>& slots, const std::vector<int>& requests,
    const std::vector<double>* remaining, std::size_t slot_count,
    int total_processors) {
  std::vector<int> full_requests(slot_count, 0);
  for (std::size_t k = 0; k < slots.size(); ++k) {
    full_requests[slots[k]] = requests[k];
  }
  std::vector<int> full;
  if (remaining != nullptr) {
    std::vector<double> full_remaining(slot_count, 0.0);
    for (std::size_t k = 0; k < slots.size(); ++k) {
      full_remaining[slots[k]] = (*remaining)[k];
    }
    full = allocate_sized(full_requests, full_remaining, total_processors);
  } else {
    full = allocate(full_requests, total_processors);
  }
  std::vector<int> allotments(slots.size());
  for (std::size_t k = 0; k < slots.size(); ++k) {
    allotments[k] = full[slots[k]];
  }
  return allotments;
}

std::vector<int> PositionFreeAllocator::allocate_slots(
    const std::vector<std::size_t>& /*slots*/, const std::vector<int>& requests,
    const std::vector<double>* remaining, std::size_t /*slot_count*/,
    int total_processors) {
  return remaining != nullptr
             ? allocate_sized(requests, *remaining, total_processors)
             : allocate(requests, total_processors);
}

}  // namespace abg::alloc
