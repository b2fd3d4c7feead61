// Dynamic equi-partitioning (DEQ) — McCann, Vaswani & Zahorjan (1993).
//
// Water-filling division of the machine: every quantum, each job is
// entitled to an equal share; a job requesting less than its share gets
// exactly its request, and the surplus is re-divided among the remaining
// jobs until either all requests are met or the machine is exhausted.
// DEQ is fair, non-reserving and conservative — the allocator class the
// paper's Theorem 5 couples ABG with.  Indivisible remainders rotate across
// quanta so no job is systematically favored.
#pragma once

#include "alloc/allocator.hpp"

namespace abg::alloc {

class EquiPartition final : public PositionFreeAllocator {
 public:
  std::vector<int> allocate(const std::vector<int>& requests,
                            int total_processors) override;
  void reset() override { rotation_ = 0; }
  std::string_view name() const override { return "equi-partition"; }
  /// Copies the rotation offset: a clone continues the original's
  /// remainder rotation instead of restarting it at job 0.
  std::unique_ptr<Allocator> clone() const override {
    return std::make_unique<EquiPartition>(*this);
  }

 private:
  std::size_t rotation_ = 0;
};

}  // namespace abg::alloc
