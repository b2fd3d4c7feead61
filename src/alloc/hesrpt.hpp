// heSRPT-style size-aware allocation (Berg, Vesilo, Harchol-Balter).
//
// For jobs with sublinear speedup s(k) = k^p, heSRPT gives *every* job a
// share simultaneously — unlike strict SRPT it never parks all but one
// job — with the share schedule favoring the job closest to completion:
// index the active jobs 1..n by remaining work, largest first, and give
// job i the fraction
//
//     theta_i = (i/n)^(1/(1-p)) - ((i-1)/n)^(1/(1-p))
//
// of the machine (the fractions telescope to exactly 1).  The smallest
// remaining job (i = n) gets the largest share, which minimizes mean
// flowtime in the k^p speedup regime.  As p -> 1 (linear speedup) the
// exponent grows without bound and the schedule becomes SRPT, all
// processors to the smallest job; p = 1 is that limit exactly.  As
// p -> 0 the exponent tends to 1 and the schedule tends to EQUI.  This
// allocator is the scenario library's competing policy for the
// `sublinear` generator: pair it with a static full-machine request so
// the desire feedback never caps the shares, or with ABG/A-Greedy to
// study the interaction.
//
// It is deliberately *unfair* (allocator properties fair/non-reserving do
// not both hold; it stays conservative and non-reserving), so it is a
// competing policy, not a drop-in DEQ replacement.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "alloc/allocator.hpp"

namespace abg::alloc {

/// Size-aware heSRPT shares with largest-remainder discretization.
class HeSrpt final : public PositionFreeAllocator {
 public:
  /// `power` is the speedup exponent p in (0, 1]; p = 1 is the pure-SRPT
  /// limit (all processors to the smallest job).  Throws
  /// std::invalid_argument outside the range.
  explicit HeSrpt(double power = 0.5);

  /// Without sizes every job counts as equally large; ties resolve by
  /// job index (deterministic), so the result is a valid conservative
  /// allocation but the policy only becomes heSRPT when the engine
  /// supplies remaining work via allocate_sized.
  std::vector<int> allocate(const std::vector<int>& requests,
                            int total_processors) override;

  bool size_aware() const override { return true; }

  std::vector<int> allocate_sized(const std::vector<int>& requests,
                                  const std::vector<double>& remaining,
                                  int total_processors) override;

  std::string_view name() const override { return "hesrpt"; }

  std::unique_ptr<Allocator> clone() const override {
    return std::make_unique<HeSrpt>(power_);
  }

  double power() const { return power_; }

 private:
  double power_;
};

}  // namespace abg::alloc
