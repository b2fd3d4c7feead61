#include "sim/report.hpp"

#include <algorithm>
#include <stdexcept>

#include "fault/resilience.hpp"

namespace abg::sim {

namespace {

constexpr std::string_view kLevels = " .:-=+*#%@";

}  // namespace

std::string sparkline(const std::vector<double>& values) {
  if (values.empty()) {
    return {};
  }
  double peak = 0.0;
  for (const double v : values) {
    peak = std::max(peak, v);
  }
  std::string out;
  out.reserve(values.size());
  for (const double v : values) {
    if (peak <= 0.0 || v <= 0.0) {
      out.push_back(kLevels.front());
      continue;
    }
    const auto idx = static_cast<std::size_t>(
        (v / peak) * static_cast<double>(kLevels.size() - 1) + 0.5);
    out.push_back(kLevels[std::min(idx, kLevels.size() - 1)]);
  }
  return out;
}

std::string feedback_report(const JobTrace& trace) {
  std::vector<double> allotments;
  allotments.reserve(trace.quanta.size());
  for (const int a : trace.allotment_series()) {
    allotments.push_back(static_cast<double>(a));
  }
  std::string out;
  out += "parallelism A(q): " + sparkline(trace.parallelism_series()) + "\n";
  out += "request     d(q): " + sparkline(trace.request_series()) + "\n";
  out += "allotment   a(q): " + sparkline(allotments) + "\n";
  return out;
}

std::string gantt_chart(const SimResult& result, int processors) {
  if (processors < 1) {
    throw std::invalid_argument("gantt_chart: processors must be >= 1");
  }
  dag::Steps quantum_length = 0;
  for (const JobTrace& t : result.jobs) {
    for (const auto& q : t.quanta) {
      if (quantum_length == 0) {
        quantum_length = q.length;
      } else if (q.length != quantum_length) {
        throw std::invalid_argument(
            "gantt_chart: non-uniform quantum lengths");
      }
    }
  }
  if (quantum_length == 0) {
    return {};
  }
  const auto slots = static_cast<std::size_t>(
      (result.makespan + quantum_length - 1) / quantum_length);
  std::string out;
  for (std::size_t j = 0; j < result.jobs.size(); ++j) {
    std::vector<double> share(slots, 0.0);
    for (const auto& q : result.jobs[j].quanta) {
      const auto slot =
          static_cast<std::size_t>(q.start_step / quantum_length);
      if (slot < slots) {
        share[slot] = static_cast<double>(q.allotment);
      }
    }
    // Scale against the machine size (not the row peak) so rows are
    // comparable.
    std::string row;
    row.reserve(slots);
    for (const double s : share) {
      const auto idx = static_cast<std::size_t>(
          s / static_cast<double>(processors) *
              static_cast<double>(kLevels.size() - 1) +
          0.5);
      row.push_back(kLevels[std::min(idx, kLevels.size() - 1)]);
    }
    out += "job " + std::to_string(j) + " |" + row + "|\n";
  }
  return out;
}

double machine_utilization(const SimResult& result, int processors) {
  if (processors < 1) {
    throw std::invalid_argument(
        "machine_utilization: processors must be >= 1");
  }
  if (result.makespan <= 0) {
    return 0.0;
  }
  dag::TaskCount work = 0;
  for (const JobTrace& t : result.jobs) {
    work += t.work;
  }
  return static_cast<double>(work) /
         (static_cast<double>(result.makespan) *
          static_cast<double>(processors));
}

std::string resilience_report(const SimResult& faulty,
                              const SimResult& reference) {
  return fault::format_resilience_report(
      fault::analyze_resilience(faulty, reference));
}

}  // namespace abg::sim
