#include "sim/report.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "core/run.hpp"
#include "dag/profile_job.hpp"
#include "workload/profiles.hpp"

namespace abg::sim {
namespace {

TEST(Sparkline, EmptyInput) { EXPECT_TRUE(sparkline({}).empty()); }

TEST(Sparkline, ScalesToPeak) {
  const std::string s = sparkline({0.0, 5.0, 10.0});
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.front(), ' ');
  EXPECT_EQ(s.back(), '@');
  EXPECT_NE(s[1], ' ');
  EXPECT_NE(s[1], '@');
}

TEST(Sparkline, AllZeros) {
  EXPECT_EQ(sparkline({0.0, 0.0}), "  ");
}

TEST(Sparkline, UniformPositiveIsPeak) {
  EXPECT_EQ(sparkline({3.0, 3.0, 3.0}), "@@@");
}

TEST(FeedbackReport, ThreeRows) {
  JobTrace trace;
  sched::QuantumStats q;
  q.request = 4;
  q.allotment = 2;
  q.work = 20;
  q.cpl = 5.0;
  q.length = 10;
  trace.quanta.push_back(q);
  const std::string report = feedback_report(trace);
  EXPECT_NE(report.find("parallelism"), std::string::npos);
  EXPECT_NE(report.find("request"), std::string::npos);
  EXPECT_NE(report.find("allotment"), std::string::npos);
  EXPECT_EQ(std::count(report.begin(), report.end(), '\n'), 3);
}

class ReportOnSimulation : public ::testing::Test {
 protected:
  SimResult run() {
    std::vector<JobSubmission> subs;
    for (int j = 0; j < 3; ++j) {
      JobSubmission s;
      s.job = std::make_unique<dag::ProfileJob>(
          dag::ProfileJob::from_runs(workload::constant_profile(8, 200)));
      subs.push_back(std::move(s));
    }
    return core::run_set(core::abg_spec(), std::move(subs),
                         SimConfig{.processors = 16, .quantum_length = 50});
  }
};

TEST_F(ReportOnSimulation, AggregateUtilizationConsistent) {
  const SimResult result = run();
  const double u = machine_utilization(result, 16);
  EXPECT_GT(u, 0.0);
  EXPECT_LE(u, 1.0);
  // total work = 3 * 1600 tasks; U = work / (makespan * P).
  EXPECT_NEAR(u, 4800.0 / (static_cast<double>(result.makespan) * 16.0),
              1e-12);
}

TEST(Report, UtilizationValidation) {
  SimResult empty;
  EXPECT_THROW(machine_utilization(empty, 0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(machine_utilization(empty, 4), 0.0);
}

TEST_F(ReportOnSimulation, GanttChartShape) {
  const SimResult result = run();
  const std::string chart = gantt_chart(result, 16);
  // One row per job, all rows equal length.
  std::vector<std::string> rows;
  std::istringstream ss(chart);
  std::string line;
  while (std::getline(ss, line)) {
    rows.push_back(line);
  }
  ASSERT_EQ(rows.size(), 3u);
  for (const auto& row : rows) {
    EXPECT_EQ(row.size(), rows[0].size());
    EXPECT_EQ(row.rfind("job ", 0), 0u);
    EXPECT_EQ(row.back(), '|');
  }
}

TEST(Report, GanttValidation) {
  SimResult empty;
  EXPECT_THROW(gantt_chart(empty, 0), std::invalid_argument);
  EXPECT_TRUE(gantt_chart(empty, 4).empty());
}

TEST(Report, NonUniformQuantumLengthsRejected) {
  SimResult result;
  JobTrace t;
  sched::QuantumStats q1;
  q1.length = 10;
  sched::QuantumStats q2;
  q2.length = 20;
  t.quanta = {q1, q2};
  result.jobs.push_back(std::move(t));
  result.makespan = 30;
  EXPECT_THROW(gantt_chart(result, 4), std::invalid_argument);
}

}  // namespace
}  // namespace abg::sim
