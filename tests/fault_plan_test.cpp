// FaultPlan builders, validation and normalization, plus FaultInjector
// window-walking semantics.
#include "fault/fault_plan.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "fault/fault_injector.hpp"
#include "util/rng.hpp"

namespace abg::fault {
namespace {

TEST(FaultPlan, EmptyPlanIsEmpty) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.last_event_step(), 0);
  EXPECT_EQ(plan.crash_count(), 0u);
  plan.normalize();  // empty is valid
}

TEST(FaultPlan, NormalizeSortsByStep) {
  FaultPlan plan;
  plan.events.push_back(FaultEvent{90, FaultKind::kProcessorRepair, 2});
  plan.events.push_back(FaultEvent{10, FaultKind::kProcessorFailure, 2});
  plan.normalize();
  EXPECT_EQ(plan.events[0].step, 10);
  EXPECT_EQ(plan.events[1].step, 90);
}

TEST(FaultPlan, NormalizeRejectsMalformedEvents) {
  {
    FaultPlan plan;
    plan.events.push_back(FaultEvent{-1, FaultKind::kProcessorFailure, 1});
    EXPECT_THROW(plan.normalize(), std::invalid_argument);
  }
  {
    FaultPlan plan;
    plan.events.push_back(FaultEvent{0, FaultKind::kProcessorFailure, 0});
    EXPECT_THROW(plan.normalize(), std::invalid_argument);
  }
  {
    FaultPlan plan;
    FaultEvent crash;
    crash.kind = FaultKind::kJobCrash;
    crash.job = -1;
    plan.events.push_back(crash);
    EXPECT_THROW(plan.normalize(), std::invalid_argument);
  }
  {
    FaultPlan plan;
    FaultEvent revoke;
    revoke.kind = FaultKind::kAllotmentRevocation;
    revoke.job = 0;
    revoke.cap = -3;
    plan.events.push_back(revoke);
    EXPECT_THROW(plan.normalize(), std::invalid_argument);
  }
  {
    FaultPlan plan;
    plan.restart_delay = -5;
    EXPECT_THROW(plan.normalize(), std::invalid_argument);
  }
}

TEST(FaultPlan, StepAndImpulseBuilders) {
  const FaultPlan step = step_failure_plan(500, 8);
  ASSERT_EQ(step.events.size(), 1u);
  EXPECT_EQ(step.events[0].kind, FaultKind::kProcessorFailure);
  EXPECT_EQ(step.events[0].processors, 8);
  EXPECT_EQ(step.last_event_step(), 500);

  const FaultPlan impulse = impulse_failure_plan(100, 4, 250);
  ASSERT_EQ(impulse.events.size(), 2u);
  EXPECT_EQ(impulse.events[0].kind, FaultKind::kProcessorFailure);
  EXPECT_EQ(impulse.events[1].kind, FaultKind::kProcessorRepair);
  EXPECT_EQ(impulse.events[1].step, 350);
  EXPECT_THROW(impulse_failure_plan(0, 4, 0), std::invalid_argument);
}

TEST(FaultPlan, PeriodicCrashBuilder) {
  const FaultPlan plan = periodic_crash_plan(3, 50, 200, 4);
  ASSERT_EQ(plan.events.size(), 4u);
  EXPECT_EQ(plan.crash_count(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(plan.events[static_cast<std::size_t>(i)].step, 50 + 200 * i);
    EXPECT_EQ(plan.events[static_cast<std::size_t>(i)].job, 3);
  }
  EXPECT_THROW(periodic_crash_plan(0, 0, 0, 1), std::invalid_argument);
}

TEST(FaultPlan, PoissonChurnIsDeterministicGivenSeed) {
  util::Rng rng_a(42);
  util::Rng rng_b(42);
  const FaultPlan a = poisson_churn_plan(rng_a, 10000, 0.01, 200, 3);
  const FaultPlan b = poisson_churn_plan(rng_b, 10000, 0.01, 200, 3);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].step, b.events[i].step);
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
  }
  EXPECT_FALSE(a.empty());  // rate * horizon = 100 expected failures
}

TEST(FaultPlan, PoissonChurnRespectsConcurrencyCap) {
  util::Rng rng(7);
  const int max_down = 2;
  const FaultPlan plan = poisson_churn_plan(rng, 20000, 0.05, 500, max_down);
  // Replay the failure/repair stream and track concurrent failures.
  int down = 0;
  for (const FaultEvent& e : plan.events) {
    if (e.kind == FaultKind::kProcessorFailure) {
      down += e.processors;
    } else if (e.kind == FaultKind::kProcessorRepair) {
      down -= e.processors;
    }
    EXPECT_LE(down, max_down);
    EXPECT_GE(down, 0);
  }
}

TEST(FaultInjector, AdvanceConsumesEventsInWindowOrder) {
  FaultPlan plan;
  plan.events.push_back(FaultEvent{5, FaultKind::kProcessorFailure, 3});
  plan.events.push_back(FaultEvent{25, FaultKind::kProcessorRepair, 2});
  FaultInjector injector(plan);

  WindowFaults w0 = injector.advance(0, 10);
  ASSERT_EQ(w0.applied.size(), 1u);
  EXPECT_TRUE(w0.capacity_changed);
  EXPECT_EQ(injector.failed_processors(), 3);
  EXPECT_EQ(injector.capacity(16), 13);

  WindowFaults w1 = injector.advance(10, 20);
  EXPECT_TRUE(w1.applied.empty());
  EXPECT_FALSE(w1.capacity_changed);

  WindowFaults w2 = injector.advance(20, 30);
  ASSERT_EQ(w2.applied.size(), 1u);
  EXPECT_EQ(injector.failed_processors(), 1);
  EXPECT_EQ(injector.capacity(16), 15);
}

TEST(FaultInjector, CapacityFlooredAtZero) {
  FaultInjector injector(step_failure_plan(0, 100));
  injector.advance(0, 1);
  EXPECT_EQ(injector.capacity(8), 0);
}

TEST(FaultInjector, RevocationWindowCapsAndExpires) {
  FaultPlan plan;
  FaultEvent revoke;
  revoke.step = 10;
  revoke.kind = FaultKind::kAllotmentRevocation;
  revoke.job = 2;
  revoke.cap = 1;
  revoke.duration = 20;  // active over [10, 30)
  plan.events.push_back(revoke);
  FaultInjector injector(plan);

  injector.advance(0, 10);
  EXPECT_FALSE(injector.revocation_active());
  EXPECT_EQ(injector.allotment_cap(2), std::numeric_limits<int>::max());

  injector.advance(10, 20);
  EXPECT_TRUE(injector.revocation_active());
  EXPECT_EQ(injector.allotment_cap(2), 1);
  EXPECT_EQ(injector.allotment_cap(0), std::numeric_limits<int>::max());

  injector.advance(20, 30);
  EXPECT_TRUE(injector.revocation_active());  // [20,30) still inside

  injector.advance(30, 40);
  EXPECT_FALSE(injector.revocation_active());
}

TEST(FaultInjector, ZeroDurationRevocationLastsOneWindow) {
  FaultPlan plan;
  FaultEvent revoke;
  revoke.step = 0;
  revoke.kind = FaultKind::kAllotmentRevocation;
  revoke.job = 0;
  revoke.cap = 2;
  plan.events.push_back(revoke);
  FaultInjector injector(plan);

  injector.advance(0, 10);
  EXPECT_EQ(injector.allotment_cap(0), 2);
  injector.advance(10, 20);
  EXPECT_EQ(injector.allotment_cap(0), std::numeric_limits<int>::max());
}

TEST(FaultInjector, NextChangeIsTheNextEventOrWindowEnd) {
  FaultPlan plan;
  FaultEvent revoke;
  revoke.step = 10;
  revoke.kind = FaultKind::kAllotmentRevocation;
  revoke.job = 0;
  revoke.cap = 1;
  revoke.duration = 5;  // active over [10, 15)
  plan.events.push_back(revoke);
  FaultEvent fail;
  fail.step = 40;
  fail.kind = FaultKind::kProcessorFailure;
  plan.events.push_back(fail);
  FaultInjector injector(plan);

  EXPECT_EQ(injector.next_change(100), 10);  // the revocation's step
  EXPECT_EQ(injector.next_change(7), 7);     // capped at the bound
  injector.advance(10, 11);
  EXPECT_EQ(injector.next_change(100), 15);  // the window's end
  injector.advance(15, 16);
  EXPECT_EQ(injector.next_change(100), 40);  // the failure's step
  injector.advance(40, 41);
  EXPECT_EQ(injector.next_change(100), 100);  // plan exhausted

  // Consumed late, the revocation's window has already ended: the next
  // change lies before the advanced window's start.
  FaultInjector late(plan);
  late.advance(20, 21);
  EXPECT_EQ(late.next_change(100), 15);
}

}  // namespace
}  // namespace abg::fault
