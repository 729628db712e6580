// Open-loop accounting: requests are due on a fixed schedule whether or not
// earlier ones were answered, so a stall delays every request queued behind
// it.  Latency is therefore measured from the *due* time, not the moment the
// generator managed to send — otherwise a late generator would hide exactly
// the queueing the workload exists to expose.  The generator's own lateness
// (sent - due) and the backlog (due but unanswered requests) are reported
// beside it, so a slow client cannot masquerade as a slow server.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// One request's timeline, in seconds from the start of the phase.
struct RequestTiming {
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;
};

/// `count` due times spread evenly over `seconds` (request i is due at
/// i * seconds / count).
[[nodiscard]] std::vector<double> fixedRateSchedule(size_t count,
                                                    double seconds);

struct OpenLoopSummary {
  std::vector<double> latencyMs;  ///< done - due, per request, in ms
  double latenessP50Ms = 0.0;     ///< median of sent - due
  double latenessMaxMs = 0.0;
  /// Most requests due but not yet answered, sampled at every due time.
  size_t maxBacklog = 0;
  double makespan = 0.0;  ///< last done, seconds from the phase start
  /// Time the server was busy, as the client sees it: each request's
  /// service runs from when it was both sent and the previous response
  /// was out (FIFO, one request at a time) until its own response.
  double busySeconds = 0.0;
};

/// Accounts a phase whose requests are listed in due order and answered in
/// that order.
[[nodiscard]] OpenLoopSummary account(const std::vector<RequestTiming>& reqs);

}  // namespace perfbench
