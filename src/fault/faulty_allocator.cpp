#include "fault/faulty_allocator.hpp"

namespace abg::fault {

FaultyAllocator::FaultyAllocator(alloc::Allocator& inner,
                                 const FaultInjector& injector)
    : inner_(&inner),
      injector_(&injector),
      name_("faulty(" + std::string(inner.name()) + ")") {}

FaultyAllocator::FaultyAllocator(std::unique_ptr<alloc::Allocator> inner,
                                 const FaultInjector& injector)
    : owned_(std::move(inner)),
      inner_(owned_.get()),
      injector_(&injector),
      name_("faulty(" + std::string(inner_->name()) + ")") {}

std::vector<int> FaultyAllocator::allocate(const std::vector<int>& requests,
                                           int total_processors) {
  std::vector<int> allotments =
      inner_->allocate(requests, injector_->capacity(total_processors));
  apply_revocation_caps(allotments, nullptr);
  return allotments;
}

bool FaultyAllocator::size_aware() const { return inner_->size_aware(); }

std::vector<int> FaultyAllocator::allocate_sized(
    const std::vector<int>& requests, const std::vector<double>& remaining,
    int total_processors) {
  // The same shrink-only transform as allocate(): the inner allocator
  // sees the fault-reduced machine, sizes pass through untouched.
  std::vector<int> allotments = inner_->allocate_sized(
      requests, remaining, injector_->capacity(total_processors));
  apply_revocation_caps(allotments, nullptr);
  return allotments;
}

std::vector<int> FaultyAllocator::allocate_slots(
    const std::vector<std::size_t>& slots, const std::vector<int>& requests,
    const std::vector<double>* remaining, std::size_t slot_count,
    int total_processors) {
  std::vector<int> allotments =
      inner_->allocate_slots(slots, requests, remaining, slot_count,
                             injector_->capacity(total_processors));
  apply_revocation_caps(allotments, &slots);
  return allotments;
}

void FaultyAllocator::apply_revocation_caps(
    std::vector<int>& allotments, const std::vector<std::size_t>* slots) {
  last_revoked_ = 0;
  if (injector_->revocation_active()) {
    for (std::size_t k = 0; k < allotments.size(); ++k) {
      const int cap =
          injector_->allotment_cap(slots != nullptr ? (*slots)[k] : k);
      if (allotments[k] > cap) {
        last_revoked_ += allotments[k] - cap;
        allotments[k] = cap;
      }
    }
  }
}

int FaultyAllocator::pool(int total_processors) const {
  return inner_->pool(injector_->capacity(total_processors));
}

void FaultyAllocator::reset() {
  inner_->reset();
  last_revoked_ = 0;
}

std::unique_ptr<alloc::Allocator> FaultyAllocator::clone() const {
  return std::unique_ptr<alloc::Allocator>(
      new FaultyAllocator(inner_->clone(), *injector_));
}

}  // namespace abg::fault
