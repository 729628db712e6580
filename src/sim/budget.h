// Cooperative per-evaluation deadline for the co-simulated machine.
//
// Empirical search must survive candidates that hang (paper §3: the timer
// keeps going even when a transformation misbehaves).  Wall-clock timers
// cannot give reproducible verdicts — the same candidate would pass on a
// fast host and time out on a loaded one — so the deadline is counted in
// *simulated work*: interpreter steps (sim::runDecoded charges one per
// dynamic instruction) and completion cycles (sim::TimingModel checks its
// clock as it retires).  Exceeding either cap throws TimeoutError, which the
// guarded evaluation path (search/faultguard.h) converts into a structured
// Timeout outcome.  The budget is a thread-local scope, so worker threads
// in the orchestrator pool meter their own candidate without touching the
// simulator call signatures.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace ifko::sim {

/// A candidate evaluation exceeded its cooperative step/cycle budget.
/// Deliberately its own type: the guarded evaluator must tell a deadline
/// (Timeout) from a machine fault (Crash).
class TimeoutError : public std::runtime_error {
 public:
  explicit TimeoutError(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
/// The thread's active budget; runDecoded/timing cache the pointer once per run
/// so the per-instruction charge is one decrement, not a TLS lookup.
struct EvalBudgetState {
  uint64_t stepsLeft = 0;  ///< remaining interpreter steps
  uint64_t cycleCap = 0;   ///< timing-model completion-cycle ceiling
};

/// The budget installed on the current thread, or nullptr.
[[nodiscard]] EvalBudgetState* currentEvalBudget();
}  // namespace detail

/// RAII: installs a step/cycle budget on the current thread for the
/// duration of the scope.  Scopes nest; the innermost wins.
class ScopedEvalBudget {
 public:
  ScopedEvalBudget(uint64_t maxSteps, uint64_t cycleCap);
  ~ScopedEvalBudget();
  ScopedEvalBudget(const ScopedEvalBudget&) = delete;
  ScopedEvalBudget& operator=(const ScopedEvalBudget&) = delete;

  [[nodiscard]] static bool active();
  /// Charges `n` interpreter steps against the current thread's budget
  /// (no-op when none is installed).  Throws TimeoutError on exhaustion.
  static void chargeSteps(uint64_t n);
  /// Reports a timing-model completion cycle; throws TimeoutError when it
  /// passes the cap (no-op when no budget is installed).
  static void checkCycles(uint64_t completionCycle);

 private:
  detail::EvalBudgetState state_;
  detail::EvalBudgetState* prev_;
};

}  // namespace ifko::sim
