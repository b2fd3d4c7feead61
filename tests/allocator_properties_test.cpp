// Property tests over all allocators: the invariants the paper's analysis
// relies on (conservativeness everywhere; fairness and non-reservation for
// the allocators that claim them), checked on randomized request vectors.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <ostream>
#include <string>

#include "alloc/availability_profile.hpp"
#include "alloc/equipartition.hpp"
#include "alloc/hesrpt.hpp"
#include "alloc/round_robin.hpp"
#include "alloc/unconstrained.hpp"
#include "fault/fault_injector.hpp"
#include "fault/faulty_allocator.hpp"
#include "util/rng.hpp"

namespace abg::alloc {
namespace {

struct AllocatorCase {
  std::string name;
  std::unique_ptr<Allocator> (*make)();
  bool shares_one_pool;  // sum of allotments bounded by P
  bool non_reserving;
  bool fair;
};

// gtest appends the printed parameter to each test's name; print the
// case name so names stay the same from one build to the next.
void PrintTo(const AllocatorCase& c, std::ostream* os) { *os << c.name; }

std::unique_ptr<Allocator> make_deq() {
  return std::make_unique<EquiPartition>();
}
std::unique_ptr<Allocator> make_rr() { return std::make_unique<RoundRobin>(); }
std::unique_ptr<Allocator> make_unconstrained() {
  return std::make_unique<Unconstrained>();
}
std::unique_ptr<Allocator> make_hesrpt() {
  return std::make_unique<HeSrpt>();
}
std::unique_ptr<Allocator> make_profile() {
  return std::make_unique<AvailabilityProfile>(
      std::vector<int>{3, 17, 0, 64, 5});
}

// A quiescent injector (no events fired): the fault decorator must be a
// strict pass-through, so the wrapped allocators claim every invariant
// their inner allocator claims.
const fault::FaultInjector& idle_injector() {
  static fault::FaultInjector injector{fault::FaultPlan{}};
  return injector;
}
std::unique_ptr<Allocator> make_faulty_deq() {
  return std::make_unique<fault::FaultyAllocator>(make_deq(),
                                                  idle_injector());
}
std::unique_ptr<Allocator> make_faulty_rr() {
  return std::make_unique<fault::FaultyAllocator>(make_rr(),
                                                  idle_injector());
}

class AllocatorProperties : public ::testing::TestWithParam<AllocatorCase> {};

TEST_P(AllocatorProperties, ConservativeOnRandomInputs) {
  const AllocatorCase& c = GetParam();
  util::Rng rng(1234);
  for (int trial = 0; trial < 200; ++trial) {
    const auto alloc = c.make();
    const auto jobs = rng.uniform_int(1, 12);
    std::vector<int> requests;
    for (int j = 0; j < jobs; ++j) {
      requests.push_back(static_cast<int>(rng.uniform_int(0, 40)));
    }
    const int machine = static_cast<int>(rng.uniform_int(0, 32));
    const auto a = alloc->allocate(requests, machine);
    ASSERT_EQ(a.size(), requests.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_GE(a[i], 0);
      ASSERT_LE(a[i], requests[i]) << c.name << " over-allocated job " << i;
    }
  }
}

TEST_P(AllocatorProperties, PoolBoundHolds) {
  const AllocatorCase& c = GetParam();
  if (!c.shares_one_pool) {
    GTEST_SKIP() << "allocator grants per-job independently";
  }
  util::Rng rng(987);
  const auto alloc = c.make();
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<int> requests;
    const auto jobs = rng.uniform_int(1, 10);
    for (int j = 0; j < jobs; ++j) {
      requests.push_back(static_cast<int>(rng.uniform_int(0, 50)));
    }
    const int machine = static_cast<int>(rng.uniform_int(0, 24));
    const int pool = alloc->pool(machine);
    ASSERT_LE(pool, machine);
    const auto a = alloc->allocate(requests, machine);
    ASSERT_LE(std::accumulate(a.begin(), a.end(), 0), pool);
  }
}

TEST_P(AllocatorProperties, NonReservingWhenClaimed) {
  const AllocatorCase& c = GetParam();
  if (!c.non_reserving) {
    GTEST_SKIP() << "allocator does not claim non-reservation";
  }
  util::Rng rng(555);
  const auto alloc = c.make();
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<int> requests;
    const auto jobs = rng.uniform_int(1, 10);
    for (int j = 0; j < jobs; ++j) {
      requests.push_back(static_cast<int>(rng.uniform_int(0, 30)));
    }
    const int machine = static_cast<int>(rng.uniform_int(1, 24));
    const auto a = alloc->allocate(requests, machine);
    const int assigned = std::accumulate(a.begin(), a.end(), 0);
    const int demanded = std::accumulate(requests.begin(), requests.end(), 0);
    ASSERT_EQ(assigned, std::min(machine, demanded))
        << c.name << " left processors idle while demand remained";
  }
}

TEST_P(AllocatorProperties, FairWhenClaimed) {
  // Fairness: all jobs receive an equal share (within the indivisible
  // remainder) unless they requested fewer.
  const AllocatorCase& c = GetParam();
  if (!c.fair) {
    GTEST_SKIP() << "allocator does not claim fairness";
  }
  util::Rng rng(777);
  const auto alloc = c.make();
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<int> requests;
    const auto jobs = rng.uniform_int(1, 8);
    for (int j = 0; j < jobs; ++j) {
      requests.push_back(static_cast<int>(rng.uniform_int(0, 30)));
    }
    const int machine = static_cast<int>(rng.uniform_int(1, 24));
    const auto a = alloc->allocate(requests, machine);
    // Any job that got strictly less than another job's allotment minus one
    // must have been fully satisfied.
    const int max_alloc = *std::max_element(a.begin(), a.end());
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i] < max_alloc - 1) {
        ASSERT_EQ(a[i], requests[i])
            << c.name << " under-served job " << i << " without cause";
      }
    }
  }
}

/// One slot-aware call on a batch of `slot_count` slots: a random sparse
/// set of active slots (ascending), their requests and remaining work.
struct SparseCall {
  std::vector<std::size_t> slots;
  std::vector<int> requests;
  std::vector<double> remaining;
  std::size_t slot_count = 0;
  int machine = 0;
};

SparseCall random_sparse_call(util::Rng& rng, std::size_t slot_count) {
  SparseCall call;
  call.slot_count = slot_count;
  const double density = rng.uniform01();
  for (std::size_t i = 0; i < slot_count; ++i) {
    if (rng.bernoulli(density)) {
      call.slots.push_back(i);
      // Mostly positive desires; an active slot may still request 0.
      call.requests.push_back(static_cast<int>(rng.uniform_int(0, 40)));
      // Whole-number sizes make equal-size ties (and heSRPT's
      // tie-break by slot) likely.
      call.remaining.push_back(static_cast<double>(rng.uniform_int(0, 8)));
    }
  }
  call.machine = static_cast<int>(rng.uniform_int(0, 64));
  return call;
}

/// The reference the slot-aware call must equal: scatter the compact
/// lists into full-length vectors (0 for inactive slots), call
/// allocate() or allocate_sized(), gather the active slots.
std::vector<int> scatter_allocate_gather(Allocator& alloc,
                                         const SparseCall& call) {
  std::vector<int> requests(call.slot_count, 0);
  std::vector<double> remaining(call.slot_count, 0.0);
  for (std::size_t k = 0; k < call.slots.size(); ++k) {
    requests[call.slots[k]] = call.requests[k];
    remaining[call.slots[k]] = call.remaining[k];
  }
  const std::vector<int> full =
      alloc.size_aware()
          ? alloc.allocate_sized(requests, remaining, call.machine)
          : alloc.allocate(requests, call.machine);
  std::vector<int> gathered;
  for (const std::size_t i : call.slots) {
    gathered.push_back(full[i]);
  }
  return gathered;
}

std::vector<int> allocate_slots(Allocator& alloc, const SparseCall& call) {
  return alloc.allocate_slots(
      call.slots, call.requests,
      alloc.size_aware() ? &call.remaining : nullptr, call.slot_count,
      call.machine);
}

TEST_P(AllocatorProperties, SlotAwareCallMatchesScatterAllocateGather) {
  // Two allocators from the same factory see the same stream of 20
  // consecutive calls, one through allocate_slots and one through the
  // full-length reference, so rotation, cursor and profile state must
  // advance identically for the results to keep matching.
  const AllocatorCase& c = GetParam();
  util::Rng rng(2468);
  for (int trial = 0; trial < 50; ++trial) {
    const auto compact = c.make();
    const auto reference = c.make();
    const auto slot_count = static_cast<std::size_t>(rng.uniform_int(1, 48));
    for (int call_index = 0; call_index < 20; ++call_index) {
      const SparseCall call = random_sparse_call(rng, slot_count);
      ASSERT_EQ(compact->pool(call.machine), reference->pool(call.machine));
      ASSERT_EQ(allocate_slots(*compact, call),
                scatter_allocate_gather(*reference, call))
          << c.name << " trial " << trial << " call " << call_index;
    }
  }
}

TEST_P(AllocatorProperties, SlotAwareCallMatchesUnderRevocation) {
  // The same equivalence through a FaultyAllocator whose injector has
  // revocations active: caps apply by slot id on the compact path and by
  // index on the reference path, and last_revoked() must agree.
  const AllocatorCase& c = GetParam();
  util::Rng rng(1357);
  fault::FaultPlan plan;
  for (int e = 0; e < 40; ++e) {
    fault::FaultEvent revoke;
    revoke.step = 10 * e;
    revoke.kind = fault::FaultKind::kAllotmentRevocation;
    // Low slots, so that even the availability profile, which serves
    // slots greedily in order, has revoked slots holding processors.
    revoke.job = static_cast<int>(rng.uniform_int(0, 11));
    revoke.cap = static_cast<int>(rng.uniform_int(0, 3));
    revoke.duration = rng.uniform_int(20, 120);
    plan.events.push_back(revoke);
  }
  fault::FaultInjector injector(plan);
  fault::FaultyAllocator compact(c.make(), injector);
  fault::FaultyAllocator reference(c.make(), injector);
  int revoked = 0;
  for (dag::Steps step = 0; step < 400; step += 10) {
    injector.advance(step, step + 10);
    const SparseCall call = random_sparse_call(rng, 48);
    ASSERT_EQ(allocate_slots(compact, call),
              scatter_allocate_gather(reference, call))
        << c.name << " at step " << step;
    ASSERT_EQ(compact.last_revoked(), reference.last_revoked());
    revoked += compact.last_revoked();
  }
  EXPECT_GT(revoked, 0) << "no revocation ever clamped an allotment";
}

INSTANTIATE_TEST_SUITE_P(
    AllAllocators, AllocatorProperties,
    ::testing::Values(
        AllocatorCase{"equi-partition", &make_deq, true, true, true},
        AllocatorCase{"round-robin", &make_rr, true, true, true},
        AllocatorCase{"unconstrained", &make_unconstrained, false, false,
                      false},
        AllocatorCase{"availability-profile", &make_profile, true, false,
                      false},
        AllocatorCase{"hesrpt", &make_hesrpt, true, true, false},
        AllocatorCase{"faulty-equi-partition", &make_faulty_deq, true, true,
                      true},
        AllocatorCase{"faulty-round-robin", &make_faulty_rr, true, true,
                      true}),
    [](const auto& param_info) {
      std::string n = param_info.param.name;
      for (char& ch : n) {
        if (ch == '-') {
          ch = '_';
        }
      }
      return n;
    });

TEST(FaultyAllocatorProperties, InvariantsHoldWhileCapacityShrinks) {
  // Walk a churn plan through the injector and check conservativeness and
  // the pool bound against the *surviving* capacity at every window.
  util::Rng plan_rng(31337);
  fault::FaultInjector injector(
      fault::poisson_churn_plan(plan_rng, 5000, 0.01, 300, 12));
  EquiPartition deq;
  fault::FaultyAllocator wrapped(deq, injector);

  util::Rng rng(4242);
  const int machine = 16;
  for (dag::Steps step = 0; step < 5000; step += 50) {
    injector.advance(step, step + 50);
    const int capacity = injector.capacity(machine);
    std::vector<int> requests;
    const auto jobs = rng.uniform_int(1, 8);
    for (int j = 0; j < jobs; ++j) {
      requests.push_back(static_cast<int>(rng.uniform_int(0, 24)));
    }
    const int pool = wrapped.pool(machine);
    ASSERT_LE(pool, capacity);
    const auto a = wrapped.allocate(requests, machine);
    ASSERT_EQ(a.size(), requests.size());
    int assigned = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_GE(a[i], 0);
      ASSERT_LE(a[i], requests[i]) << "over-allocation at step " << step;
      assigned += a[i];
    }
    ASSERT_LE(assigned, capacity)
        << "allocated beyond surviving capacity at step " << step;
  }
}

TEST(FaultyAllocatorProperties, RevocationNeverBreaksConservativeness) {
  fault::FaultPlan plan;
  util::Rng rng(99);
  for (int i = 0; i < 20; ++i) {
    fault::FaultEvent revoke;
    revoke.step = 10 * i;
    revoke.kind = fault::FaultKind::kAllotmentRevocation;
    revoke.job = static_cast<int>(rng.uniform_int(0, 5));
    revoke.cap = static_cast<int>(rng.uniform_int(0, 3));
    revoke.duration = rng.uniform_int(5, 40);
    plan.events.push_back(revoke);
  }
  fault::FaultInjector injector(plan);
  EquiPartition deq;
  fault::FaultyAllocator wrapped(deq, injector);

  for (dag::Steps step = 0; step < 300; step += 10) {
    injector.advance(step, step + 10);
    std::vector<int> requests;
    for (int j = 0; j < 6; ++j) {
      requests.push_back(static_cast<int>(rng.uniform_int(0, 20)));
    }
    const auto a = wrapped.allocate(requests, 16);
    int assigned = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_GE(a[i], 0);
      ASSERT_LE(a[i], requests[i]);
      ASSERT_LE(a[i], injector.allotment_cap(i));
      assigned += a[i];
    }
    ASSERT_LE(assigned + wrapped.last_revoked(), wrapped.pool(16));
  }
}

TEST(AllocatorClone, PreservesRotationState) {
  // Regression for the dropped-state clone() bug: a clone taken mid-stream
  // must continue the original's allocation sequence exactly.  Rotation
  // (DEQ/RR) and the profile cursor are the state at stake.
  const auto check = [](std::unique_ptr<Allocator> original) {
    util::Rng rng(515);
    std::vector<int> requests(5, 0);
    // Warm the internal rotation/cursor, then fork.
    for (int warm = 0; warm < 7; ++warm) {
      for (int& r : requests) {
        r = static_cast<int>(rng.uniform_int(0, 9));
      }
      original->allocate(requests, 11);
    }
    const auto copy = original->clone();
    for (int trial = 0; trial < 20; ++trial) {
      for (int& r : requests) {
        r = static_cast<int>(rng.uniform_int(0, 9));
      }
      ASSERT_EQ(copy->allocate(requests, 11),
                original->allocate(requests, 11))
          << original->name() << " clone diverged at trial " << trial;
    }
  };
  check(std::make_unique<EquiPartition>());
  check(std::make_unique<RoundRobin>());
  check(std::make_unique<AvailabilityProfile>(
      std::vector<int>{3, 17, 0, 64, 5, 9, 2, 30}));
}

}  // namespace
}  // namespace abg::alloc

