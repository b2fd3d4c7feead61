#include "sim/trace_io.hpp"

#include <limits>
#include <ostream>

namespace abg::sim {

void write_trace_csv(std::ostream& os, const JobTrace& trace) {
  // Full precision for the fractional cpl column.
  const auto old_precision = os.precision(
      std::numeric_limits<double>::max_digits10);
  os << "index,start_step,request,allotment,available,length,steps_used,"
        "work,cpl,full,finished\n";
  for (const auto& q : trace.quanta) {
    os << q.index << ',' << q.start_step << ',' << q.request << ','
       << q.allotment << ',' << q.available << ',' << q.length << ','
       << q.steps_used << ',' << q.work << ',' << q.cpl << ','
       << (q.full ? 1 : 0) << ',' << (q.finished ? 1 : 0) << '\n';
  }
  os.precision(old_precision);
}

}  // namespace abg::sim
