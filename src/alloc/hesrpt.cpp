#include "alloc/hesrpt.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace abg::alloc {

HeSrpt::HeSrpt(double power) : power_(power) {
  if (!(power > 0.0) || power > 1.0) {
    throw std::invalid_argument("HeSrpt: power must be in (0, 1]");
  }
}

std::vector<int> HeSrpt::allocate(const std::vector<int>& requests,
                                  int total_processors) {
  // No sizes available: rank every job equal (the tie-break by index
  // keeps the result deterministic and the shares still telescope).
  return allocate_sized(requests,
                        std::vector<double>(requests.size(), 0.0),
                        total_processors);
}

std::vector<int> HeSrpt::allocate_sized(const std::vector<int>& requests,
                                        const std::vector<double>& remaining,
                                        int total_processors) {
  validate_allocation_inputs(requests, total_processors);
  if (remaining.size() != requests.size()) {
    throw std::invalid_argument(
        "HeSrpt: remaining and requests must have equal length");
  }
  std::vector<int> allotments(requests.size(), 0);
  std::vector<std::size_t> active;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (requests[i] > 0) {
      active.push_back(i);
    }
  }
  if (active.empty() || total_processors == 0) {
    return allotments;
  }

  // Rank 1..n by remaining work, largest first; equal sizes (and the
  // size-free fallback) break ties by job index so the ordering — and
  // therefore the whole allocation — is deterministic.
  std::stable_sort(active.begin(), active.end(),
                   [&remaining](std::size_t a, std::size_t b) {
                     return remaining[a] > remaining[b];
                   });

  const std::size_t n = active.size();
  const double total = static_cast<double>(total_processors);

  // Ideal real-valued shares theta_i * P, discretized by largest
  // remainder.  boundary(k) = (k/n)^(1/(1-p)) is exact at k = 0 and
  // k = n, so the integer shares always sum to exactly P before capping.
  // At p = 1 the boundary is 0 below k = n: pure SRPT.
  auto boundary_at = [this, n](std::size_t k) {
    if (k == n) {
      return 1.0;
    }
    if (power_ >= 1.0) {
      return 0.0;
    }
    return std::pow(static_cast<double>(k) / static_cast<double>(n),
                    1.0 / (1.0 - power_));
  };
  std::vector<double> ideal(n, 0.0);
  std::vector<int> share(n, 0);
  int assigned = 0;
  double previous_boundary = 0.0;
  for (std::size_t k = 1; k <= n; ++k) {
    const double boundary = boundary_at(k);
    ideal[k - 1] = (boundary - previous_boundary) * total;
    previous_boundary = boundary;
    share[k - 1] = static_cast<int>(ideal[k - 1]);  // floor (ideal >= 0)
    assigned += share[k - 1];
  }
  int leftover = total_processors - assigned;
  // Hand the leftover units to the largest fractional parts; ties go to
  // the later rank (the smaller-remaining job), matching the policy's
  // preference order.
  std::vector<std::size_t> ranks(n);
  for (std::size_t k = 0; k < n; ++k) {
    ranks[k] = k;
  }
  std::stable_sort(ranks.begin(), ranks.end(),
                   [&ideal, &share](std::size_t a, std::size_t b) {
                     const double fa = ideal[a] - share[a];
                     const double fb = ideal[b] - share[b];
                     if (fa != fb) {
                       return fa > fb;
                     }
                     return a > b;
                   });
  for (std::size_t k = 0; k < n && leftover > 0; ++k) {
    ++share[ranks[k]];
    --leftover;
  }

  // The conservative contract caps each share at the job's request; the
  // freed surplus water-fills back in priority order (smallest remaining
  // first), so no processor idles while some request is unmet.
  int surplus = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t job = active[k];
    const int granted = std::min(share[k], requests[job]);
    allotments[job] = granted;
    surplus += share[k] - granted;
  }
  for (std::size_t k = n; k-- > 0 && surplus > 0;) {
    const std::size_t job = active[k];
    const int extra =
        std::min(surplus, requests[job] - allotments[job]);
    allotments[job] += extra;
    surplus -= extra;
  }
  return allotments;
}

}  // namespace abg::alloc
