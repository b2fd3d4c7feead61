#include "sim/validate.hpp"

#include <cmath>
#include <map>
#include <string>

namespace abg::sim {

namespace {

// Checks take the message as a literal and build a string only when they
// fail, so validating a correct trace allocates nothing per quantum.
void check(std::vector<std::string>& issues, bool ok, const char* message) {
  if (!ok) {
    issues.emplace_back(message);
  }
}

void check_quantum(std::vector<std::string>& issues, bool ok, std::size_t i,
                   const char* what) {
  if (!ok) {
    issues.push_back("quantum " + std::to_string(i + 1) + ": " + what);
  }
}

}  // namespace

std::vector<std::string> validate_trace(const JobTrace& trace) {
  std::vector<std::string> issues;

  dag::TaskCount total_work = 0;
  double total_cpl = 0.0;
  for (std::size_t i = 0; i < trace.quanta.size(); ++i) {
    const auto& q = trace.quanta[i];
    check_quantum(issues, q.index == static_cast<std::int64_t>(i + 1), i,
                  "non-sequential index");
    check_quantum(issues, q.length >= 1, i, "non-positive length");
    check_quantum(issues, q.allotment >= 0 && q.allotment <= q.request, i,
                  "allotment outside [0, request]");
    check_quantum(issues, q.available >= q.allotment, i,
                  "availability below allotment");
    check_quantum(issues, q.work >= 0, i, "negative work");
    check_quantum(issues,
                  q.work <= static_cast<dag::TaskCount>(q.allotment) *
                                static_cast<dag::TaskCount>(q.length),
                  i, "work exceeds allotment capacity");
    // Note: per-quantum cpl is NOT bounded by the quantum length on
    // irregular DAGs — one step may complete tasks on several levels whose
    // sizes are small (e.g. independent branches of different depths), so
    // the fractional progress Σ 1/|level| can exceed 1 per step.  Only the
    // whole-job total is bounded (by T∞, checked below).
    check_quantum(issues, q.cpl >= -1e-9, i,
                  "negative critical-path progress");
    check_quantum(issues, q.steps_used >= 0 && q.steps_used <= q.length, i,
                  "steps_used outside [0, length]");
    check_quantum(issues, q.waste() >= 0, i, "negative waste");
    check_quantum(issues, !q.full || q.steps_used == q.length, i,
                  "full quantum with unused steps");
    const bool is_last = i + 1 == trace.quanta.size();
    check_quantum(issues, !q.finished || is_last, i,
                  "finished flag before the final quantum");
    // Work implies positive cpl (completed tasks advance some level
    // fractionally).
    check_quantum(issues, q.work == 0 || q.cpl > 0.0, i,
                  "work done without critical-path progress");
    total_work += q.work;
    total_cpl += q.cpl;
  }

  check(issues, total_work <= trace.work,
        "total quantum work exceeds the job's T1");
  if (trace.finished()) {
    check(issues, total_work == trace.work,
          "finished job's quantum work does not sum to T1");
    check(issues,
          std::fabs(total_cpl - static_cast<double>(trace.critical_path)) <
              1e-6 * std::max<double>(1.0,
                                      static_cast<double>(
                                          trace.critical_path)),
          "finished job's quantum cpl does not sum to T_inf");
    check(issues,
          trace.quanta.empty() || trace.quanta.back().finished ||
              trace.work == 0,
          "finished trace whose last quantum is not marked finished");
    check(issues, trace.completion_step >= trace.release_step,
          "completion before release");
  }
  return issues;
}

ValidationReport validate_result_report(const SimResult& result,
                                        int processors) {
  ValidationReport report;
  std::vector<std::string>& issues = report.issues;
  if (processors < 1) {
    issues.emplace_back("processors must be >= 1");
    return report;
  }
  dag::Steps max_completion = 0;
  double response_sum = 0.0;
  dag::TaskCount waste_sum = 0;
  for (std::size_t j = 0; j < result.jobs.size(); ++j) {
    const JobTrace& t = result.jobs[j];
    for (std::string& issue : validate_trace(t)) {
      issues.push_back("job " + std::to_string(j) + ": " + issue);
    }
    if (!t.finished()) {
      issues.push_back("job " + std::to_string(j) + ": never finished");
      continue;
    }
    max_completion = std::max(max_completion, t.completion_step);
    response_sum += static_cast<double>(t.response_time());
    waste_sum += t.total_waste();
  }
  check(issues, result.makespan == max_completion,
        "makespan is not the max completion step");
  if (!result.jobs.empty()) {
    const double mean =
        response_sum / static_cast<double>(result.jobs.size());
    check(issues,
          std::fabs(result.mean_response_time - mean) <
              1e-9 * std::max(1.0, mean),
          "mean response time does not match the per-job mean");
  }
  check(issues, result.total_waste == waste_sum,
        "total waste does not match the per-job sum");

  // Machine bound at every instant, by interval sweep: each quantum holds
  // its allotment for its full length [start, start + length), so the
  // running sum of +allotment at each start and -allotment at each end
  // must never exceed P.  This handles non-uniform and unaligned quantum
  // lengths.
  if (result.averaged_allotments) {
    report.notes.emplace_back(
        "instantaneous machine-capacity checks skipped: allotments are "
        "rounded time averages (asynchronous engine)");
  } else {
    std::map<dag::Steps, int> deltas;
    for (const JobTrace& t : result.jobs) {
      for (const auto& q : t.quanta) {
        if (q.allotment > 0 && q.length > 0) {
          deltas[q.start_step] += q.allotment;
          deltas[q.start_step + q.length] -= q.allotment;
        }
      }
    }
    int held = 0;
    for (const auto& [step, delta] : deltas) {
      held += delta;
      if (held > processors) {
        issues.push_back("machine oversubscribed at step " +
                         std::to_string(step));
      }
    }
  }
  return report;
}

std::vector<std::string> validate_result(const SimResult& result,
                                         int processors) {
  return validate_result_report(result, processors).issues;
}

}  // namespace abg::sim
