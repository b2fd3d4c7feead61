// Unconstrained allocator: every request is granted up to the machine size,
// independently per job.
//
// This models the paper's first simulation set — a single job running alone
// on P processors, where "all processor requests from both schedulers are
// granted".  With multiple jobs it can oversubscribe the machine and is
// therefore intended for single-job studies only.
#pragma once

#include "alloc/allocator.hpp"

namespace abg::alloc {

class Unconstrained final : public PositionFreeAllocator {
 public:
  std::vector<int> allocate(const std::vector<int>& requests,
                            int total_processors) override;
  std::string_view name() const override { return "unconstrained"; }
  std::unique_ptr<Allocator> clone() const override {
    return std::make_unique<Unconstrained>();
  }
};

}  // namespace abg::alloc
