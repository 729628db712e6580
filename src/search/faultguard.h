// Fault-isolated candidate evaluation: the robustness layer around
// evaluateCandidate.
//
// iFKO's search only works because every candidate is vetted by a
// timer+tester loop that survives bad candidates (paper §3): the tester
// rejects transformations that break correctness, and the timer must keep
// going no matter what one candidate does.  The plain evaluateCandidate is
// pure but not contained — a simulator machine fault escapes as an
// exception and an infinite candidate never returns.  guardedEvaluate
// closes both holes:
//
//   * a cooperative deadline (sim::ScopedEvalBudget, from
//     SearchConfig::evalTimeoutMs) turns hangs into EvalOutcome::Timeout;
//   * every exception is caught and classified — sim::TimeoutError becomes
//     Timeout, anything else becomes Crash — so a throwing candidate can
//     never unwind into a worker thread (std::terminate) or the search.
//
// Each candidate is evaluated exactly once.  The simulator is
// deterministic, so a candidate that times out or crashes does so again on
// a second try; the orchestrator's quarantine, not a retry, is what keeps a
// failing kernel from poisoning the batch.
//
// FaultPlan/FaultInjector make that machinery testable: a deterministic,
// seedable schedule of injected crash/hang/tester faults applied at the
// same point a real fault would occur, used by faultguard_test and
// bench_fault_recovery to prove a batch survives faults on any schedule at
// any --jobs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "search/evalpipeline.h"
#include "search/linesearch.h"

namespace ifko::search {

/// Per-kernel evaluation-failure tally: what the orchestrator reports per
/// kernel and the quarantine policy counts.
struct FailureCounts {
  int timeouts = 0;
  int crashes = 0;
  int testerFails = 0;
  int compileFails = 0;

  /// Hard failures: the quarantine-relevant count.
  [[nodiscard]] int hard() const { return timeouts + crashes; }
  [[nodiscard]] int total() const {
    return timeouts + crashes + testerFails + compileFails;
  }
  void add(const EvalOutcome& o) {
    switch (o.status) {
      case EvalOutcome::Status::Timeout: ++timeouts; break;
      case EvalOutcome::Status::Crash: ++crashes; break;
      case EvalOutcome::Status::TesterFail: ++testerFails; break;
      case EvalOutcome::Status::CompileFail: ++compileFails; break;
      default: break;
    }
  }
  FailureCounts& operator+=(const FailureCounts& o) {
    timeouts += o.timeouts;
    crashes += o.crashes;
    testerFails += o.testerFails;
    compileFails += o.compileFails;
    return *this;
  }
};

/// A deterministic schedule of injected evaluation faults.  Evaluations
/// are numbered 1, 2, ... in the order their indices are claimed from the
/// FaultInjector; a rule decides from that index whether to fault.  Spec
/// grammar (comma-separated rules):
///
///   kind@N        fault evaluation N
///   kind@N+K      fault evaluations N, N+K, N+2K, ...
///   kind%P:seed=S fault pseudo-randomly ~1/P of evaluations (SplitMix64
///                 of S and the index, so the schedule is seed-stable)
///   kind          crash | hang | tester
///
/// e.g. "crash@3,hang@10+7,tester%5:seed=42".
struct FaultPlan {
  enum class Kind : uint8_t { Crash, Hang, TesterFail };
  struct Rule {
    Kind kind = Kind::Crash;
    uint64_t at = 0;     ///< first evaluation index hit (1-based); 0 = random rule
    uint64_t every = 0;  ///< repeat period; 0 = fire once (at-rules only)
    uint64_t oneIn = 0;  ///< random rule: fire when hash(seed,i) % oneIn == 0
    uint64_t seed = 1;
  };
  std::vector<Rule> rules;

  [[nodiscard]] bool empty() const { return rules.empty(); }
  /// The fault (if any) rule-scheduled for this evaluation.
  [[nodiscard]] std::optional<Kind> fires(uint64_t evalIndex) const;
  /// Parses the spec grammar above; "" parses to an empty plan.
  [[nodiscard]] static std::optional<FaultPlan> parse(const std::string& spec,
                                                      std::string* error);
};

[[nodiscard]] std::string_view faultKindName(FaultPlan::Kind kind);

/// Applies a FaultPlan across one run: hands out evaluation indices and
/// raises the scheduled faults the way the real ones happen — Crash
/// throws, Hang burns the thread's sim::ScopedEvalBudget until it expires
/// (or throws TimeoutError outright when no deadline is armed), TesterFail
/// returns a forced rejection.  Indices are claimed by one thread, in the
/// order the evaluations are issued (the orchestrator numbers a batch's
/// cache misses before dispatching them), so which candidate gets which
/// fault does not depend on which worker starts first.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

  [[nodiscard]] bool empty() const { return plan_.empty(); }
  /// Claims the next evaluation index (first call returns 1).  Not
  /// thread-safe: call it from the thread that orders the evaluations.
  [[nodiscard]] uint64_t nextIndex() { return ++count_; }
  /// Raises the fault scheduled for evalIndex, if any: throws for
  /// crash/hang, returns a forced outcome for tester faults, returns
  /// nullopt when no fault is due.
  std::optional<EvalOutcome> fire(uint64_t evalIndex) const;

 private:
  FaultPlan plan_;
  uint64_t count_ = 0;
};

/// evaluateCandidate with containment: deadline and classification.
/// Never throws — every failure comes back as a structured EvalOutcome.
/// req.injector (may be null) injects the fault the FaultPlan schedules
/// for req.faultIndex.
[[nodiscard]] EvalOutcome guardedEvaluateCandidate(const EvalRequest& req);

/// The deterministic ms -> simulated-work conversion behind evalTimeoutMs:
/// steps = ms * 100'000 interpreter steps, cycles = ms * 1'000'000 model
/// cycles, each saturating at UINT64_MAX.  Exposed so tests and docs agree
/// with the implementation.
inline constexpr uint64_t kStepsPerTimeoutMs = 100'000;
inline constexpr uint64_t kCyclesPerTimeoutMs = 1'000'000;

}  // namespace ifko::search
