// Fault-injecting allocator decorator.
//
// Wraps any alloc::Allocator and filters the machine it sees through a
// FaultInjector: the inner allocator is offered capacity(P) processors
// instead of P (failed processors simply do not exist for it), and
// per-job allotments are clamped to any active revocation caps after the
// inner allocation.  Both transformations only ever shrink, so every
// invariant the inner allocator guarantees survives decoration:
// conservativeness (a_i <= d_i) trivially, and the pool bound because
// pool() reports the shrunken machine.  Fairness and non-reservation hold
// relative to the shrunken machine except for revoked jobs, which is the
// point — a revocation deliberately under-serves its target.
#pragma once

#include <memory>
#include <string>

#include "alloc/allocator.hpp"
#include "fault/fault_injector.hpp"

namespace abg::fault {

class FaultyAllocator final : public alloc::Allocator {
 public:
  /// Decorates `inner` (not owned; must outlive this object) with the
  /// faults of `injector` (not owned either).
  FaultyAllocator(alloc::Allocator& inner, const FaultInjector& injector);

  /// Owning variant, used by clone().
  FaultyAllocator(std::unique_ptr<alloc::Allocator> inner,
                  const FaultInjector& injector);

  std::vector<int> allocate(const std::vector<int>& requests,
                            int total_processors) override;
  bool size_aware() const override;
  std::vector<int> allocate_sized(const std::vector<int>& requests,
                                  const std::vector<double>& remaining,
                                  int total_processors) override;
  /// Forwards the compact call to the inner allocator (exact whichever
  /// path it takes) and caps each allotment by its slot id, as
  /// allocate() caps by index.
  std::vector<int> allocate_slots(const std::vector<std::size_t>& slots,
                                  const std::vector<int>& requests,
                                  const std::vector<double>* remaining,
                                  std::size_t slot_count,
                                  int total_processors) override;
  int pool(int total_processors) const override;
  void reset() override;
  std::string_view name() const override { return name_; }
  std::unique_ptr<alloc::Allocator> clone() const override;

  /// Processors the last allocate() call clamped away under revocation
  /// caps.  Those processors are held by the revoker, not idle, so the
  /// engine excludes them from the leftover availability it reports to
  /// jobs.
  int last_revoked() const { return last_revoked_; }

  const alloc::Allocator& inner() const { return *inner_; }

 private:
  /// Caps allotments[k] at the revocation cap of job slots[k], or of job
  /// k when `slots` is null.
  void apply_revocation_caps(std::vector<int>& allotments,
                             const std::vector<std::size_t>* slots);

  std::unique_ptr<alloc::Allocator> owned_;  // null for the non-owning form
  alloc::Allocator* inner_;
  const FaultInjector* injector_;
  int last_revoked_ = 0;
  std::string name_;
};

}  // namespace abg::fault
