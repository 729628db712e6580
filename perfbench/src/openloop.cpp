#include "openloop.h"

#include <algorithm>

#include "stats.h"

namespace perfbench {

std::vector<double> fixedRateSchedule(size_t count, double seconds) {
  std::vector<double> due(count);
  for (size_t i = 0; i < count; ++i)
    due[i] = seconds * static_cast<double>(i) / static_cast<double>(count);
  return due;
}

OpenLoopSummary account(const std::vector<RequestTiming>& reqs) {
  OpenLoopSummary s;
  std::vector<double> lateness;
  std::vector<double> dues;
  std::vector<double> dones;
  double prevDone = 0.0;
  for (const RequestTiming& r : reqs) {
    s.busySeconds += r.done - std::max(r.sent, prevDone);
    prevDone = r.done;
    s.latencyMs.push_back(1000.0 * (r.done - r.due));
    lateness.push_back(1000.0 * (r.sent - r.due));
    dues.push_back(r.due);
    dones.push_back(r.done);
    s.makespan = std::max(s.makespan, r.done);
  }
  s.latenessP50Ms = median(lateness);
  if (!lateness.empty())
    s.latenessMaxMs = *std::max_element(lateness.begin(), lateness.end());
  // A request is answered no earlier than it is due, so at time t the
  // backlog is (#due <= t) - (#done <= t).
  std::sort(dues.begin(), dues.end());
  std::sort(dones.begin(), dones.end());
  for (double t : dues) {
    const auto due =
        std::upper_bound(dues.begin(), dues.end(), t) - dues.begin();
    const auto done =
        std::upper_bound(dones.begin(), dones.end(), t) - dones.begin();
    s.maxBacklog = std::max(s.maxBacklog, static_cast<size_t>(due - done));
  }
  return s;
}

}  // namespace perfbench
