// A-Control as a self-tuning regulator (Åström & Wittenmark): an integral
// controller u(k+1) = u(k) + K·e(k) whose gain K is re-derived from each
// plant measurement by a gain schedule.  The regulator below is that
// general control-theoretic form; the tests check that
// sched::AControlRequest, the scheduling-specific instantiation, computes
// the same request sequence.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <utility>

#include "sched/a_control.hpp"

namespace abg::control {
namespace {

/// For ABG: measurement = A(q), schedule K = (1 − r)·A, setpoint 1 on the
/// normalized output y = u/A, giving u(q+1) = r·u(q) + (1 − r)·A(q).
class SelfTuningRegulator {
 public:
  using GainSchedule = std::function<double(double measurement)>;

  SelfTuningRegulator(GainSchedule schedule, double setpoint,
                      double initial_output)
      : schedule_(std::move(schedule)),
        setpoint_(setpoint),
        output_(initial_output) {
    if (!schedule_) {
      throw std::invalid_argument("SelfTuningRegulator: empty gain schedule");
    }
  }

  /// Feeds one plant measurement (the measured average parallelism) and
  /// returns the next control output (the next processor desire).
  double update(double measurement) {
    if (!(measurement > 0.0)) {
      throw std::invalid_argument(
          "SelfTuningRegulator::update: measurement must be positive");
    }
    // Normalized output y = u / measurement; error e = setpoint − y.
    const double error = setpoint_ - output_ / measurement;
    output_ += schedule_(measurement) * error;
    return output_;
  }

  double output() const { return output_; }
  void reset(double initial_output) { output_ = initial_output; }

 private:
  GainSchedule schedule_;
  double setpoint_;
  double output_;
};

TEST(SelfTuningRegulator, RejectsEmptySchedule) {
  EXPECT_THROW(
      SelfTuningRegulator(SelfTuningRegulator::GainSchedule{}, 1.0, 1.0),
      std::invalid_argument);
}

TEST(SelfTuningRegulator, RejectsNonPositiveMeasurement) {
  SelfTuningRegulator reg([](double a) { return a; }, 1.0, 1.0);
  EXPECT_THROW(reg.update(0.0), std::invalid_argument);
  EXPECT_THROW(reg.update(-1.0), std::invalid_argument);
}

TEST(SelfTuningRegulator, ReducesToEquation3WithTheorem1Schedule) {
  // The general self-tuning regulator with K = (1-r)A and setpoint 1 must
  // produce exactly the Equation 3 recurrence d(q+1) = r d(q) + (1-r) A(q).
  const double r = 0.2;
  SelfTuningRegulator reg([r](double a) { return (1.0 - r) * a; }, 1.0, 1.0);
  double expected = 1.0;
  for (const double a : {10.0, 10.0, 40.0, 3.0, 3.0, 3.0}) {
    const double out = reg.update(a);
    expected = r * expected + (1.0 - r) * a;
    EXPECT_NEAR(out, expected, 1e-12);
  }
}

TEST(SelfTuningRegulator, MatchesAControlImplementation) {
  // Cross-check the scheduling-specific AControlRequest against the
  // general control-theoretic regulator on the same measurement stream.
  const double r = 0.35;
  SelfTuningRegulator reg([r](double a) { return (1.0 - r) * a; }, 1.0, 1.0);
  sched::AControlRequest policy(sched::AControlConfig{r});
  for (const double a : {6.0, 12.5, 12.5, 2.0, 80.0, 80.0, 80.0}) {
    sched::QuantumStats q;
    q.length = 100;
    q.cpl = 4.0;
    q.work = static_cast<dag::TaskCount>(a * q.cpl);
    policy.next_request(q);
    const double regulated = reg.update(q.average_parallelism());
    EXPECT_NEAR(policy.desire(), regulated, 1e-12);
  }
}

TEST(SelfTuningRegulator, ResetRestoresInitialOutput) {
  SelfTuningRegulator reg([](double a) { return a; }, 1.0, 1.0);
  reg.update(10.0);
  reg.reset(1.0);
  EXPECT_DOUBLE_EQ(reg.output(), 1.0);
}

}  // namespace
}  // namespace abg::control
