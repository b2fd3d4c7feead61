#include "alloc/equipartition.hpp"

#include <numeric>

namespace abg::alloc {

std::vector<int> EquiPartition::allocate(const std::vector<int>& requests,
                                         int total_processors) {
  validate_allocation_inputs(requests, total_processors);
  const std::size_t n = requests.size();
  std::vector<int> allotment(n, 0);
  if (n == 0 || total_processors == 0) {
    ++rotation_;
    return allotment;
  }

  int remaining = total_processors;
  std::vector<std::size_t> unsatisfied;
  unsatisfied.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (requests[i] > 0) {
      unsatisfied.push_back(i);
    }
  }

  while (remaining > 0 && !unsatisfied.empty()) {
    const int count = static_cast<int>(unsatisfied.size());
    const int share = remaining / count;
    if (share == 0) {
      // Fewer processors than jobs: hand out the remainder one each,
      // starting from a rotating offset for long-run fairness.
      const std::size_t offset = rotation_ % unsatisfied.size();
      for (int k = 0; k < remaining; ++k) {
        const std::size_t j =
            unsatisfied[(offset + static_cast<std::size_t>(k)) %
                        unsatisfied.size()];
        ++allotment[j];
      }
      remaining = 0;
      break;
    }
    // Jobs whose outstanding need fits within the fair share are granted in
    // full; their surplus is re-divided on the next pass.
    bool any_satisfied = false;
    std::vector<std::size_t> still_unsatisfied;
    still_unsatisfied.reserve(unsatisfied.size());
    for (const std::size_t j : unsatisfied) {
      const int need = requests[j] - allotment[j];
      if (need <= share) {
        allotment[j] += need;
        remaining -= need;
        any_satisfied = true;
      } else {
        still_unsatisfied.push_back(j);
      }
    }
    unsatisfied = std::move(still_unsatisfied);
    if (any_satisfied) {
      continue;
    }
    // Nobody fits within the share: every remaining job takes the share,
    // and the sub-share remainder rotates.
    for (const std::size_t j : unsatisfied) {
      allotment[j] += share;
      remaining -= share;
    }
    const std::size_t offset = rotation_ % unsatisfied.size();
    for (int k = 0; k < remaining; ++k) {
      const std::size_t j =
          unsatisfied[(offset + static_cast<std::size_t>(k)) %
                      unsatisfied.size()];
      ++allotment[j];
    }
    remaining = 0;
  }
  ++rotation_;
  return allotment;
}

}  // namespace abg::alloc
