// Pluggable search strategies: the empirical search as a subsystem.
//
// The paper hard-codes one search — the modified line search of Section
// 2.3 — and names smarter searches as the obvious next step.  This layer
// factors the search policy out of the evaluation machinery behind a
// four-call interface:
//
//   init(space, defaults)   the legal space and FKO's start point
//   propose(maxBatch)       next candidates to evaluate (empty = finished)
//   observe(spec, outcome)  one result per proposed candidate, in order
//   done()                  the strategy has nothing left to propose
//
// The driver loop (runStrategySearch) owns everything else: it evaluates
// proposals through any search::Evaluator — so the orchestrator's worker
// pool, persistent cache, and JSONL trace work unchanged for every
// strategy — tracks the best-so-far frontier, and enforces a shared Budget.
//
// Determinism contract: a strategy's proposal sequence is a pure function
// of (space, defaults, budget seed, observed outcomes).  Outcomes are
// deterministic (the simulator is), the driver observes a batch in proposal
// order regardless of evaluation order, and the batch-size hint is fixed —
// so the same seed and budget reproduce the same proposals and the same
// best-found spec at any --jobs value, warm or cold cache.
//
// Budget semantics: maxEvaluations counts every observed candidate
// (including the DEFAULTS point, cached or not — so a warm cache cannot
// change the search trajectory), maxCycles bounds the total simulated
// cycles spent; 0 disables either limit.  The budget is checked between
// proposals: an indivisible batch (a line-search dimension, a hill-climb
// neighborhood, an evolutionary generation) completes once started, so a
// run may overshoot by at most one batch.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "opt/paramspace.h"
#include "search/linesearch.h"

namespace ifko::search {

/// Shared evaluation budget, enforced by the driver loop.
struct Budget {
  int maxEvaluations = 0;  ///< observed-candidate cap; 0 = unlimited
  uint64_t maxCycles = 0;  ///< simulated-cycle cap; 0 = unlimited
  uint64_t seed = 1;       ///< PRNG seed for the stochastic strategies

  [[nodiscard]] bool unlimited() const {
    return maxEvaluations == 0 && maxCycles == 0;
  }
};

/// One batch of candidates from a strategy.  `dimension` labels the batch
/// for trace events and dimension ledgers ("WNT", "RAND", "GEN 3", ...).
struct Proposal {
  std::string dimension;
  std::vector<opt::TuningParams> candidates;
};

/// A search policy over the tuning-parameter space.  See the determinism
/// contract above; strategies must not consult wall clocks or unseeded
/// randomness.
class SearchStrategy {
 public:
  virtual ~SearchStrategy() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  /// Called once, before any propose.
  virtual void init(const opt::ParamSpace& space,
                    const opt::TuningParams& defaults) = 0;
  /// Up to `maxBatch` candidates (a hint: indivisible batches may exceed
  /// it).  An empty proposal means the strategy is finished.
  [[nodiscard]] virtual Proposal propose(int maxBatch) = 0;
  /// One call per proposed candidate, in proposal order, before the next
  /// propose.  The driver also reports the DEFAULTS point here first.
  virtual void observe(const opt::TuningParams& spec,
                       const EvalOutcome& outcome) = 0;
  [[nodiscard]] virtual bool done() const = 0;
  /// Progress ledger for TuneResult/trace: the line search fills the
  /// paper's Figure-7 dimensions; stochastic strategies report rounds.
  [[nodiscard]] virtual std::vector<DimensionResult> ledger() const {
    return {};
  }
};

enum class StrategyKind : uint8_t {
  Line,
  Random,
  HillClimb,
  Evolve,
  Attribution,
  Bandit,
};

/// Flag spellings: "line", "random", "hillclimb", "evolve", "attribution",
/// "bandit".
[[nodiscard]] std::string_view strategyName(StrategyKind kind);
[[nodiscard]] std::optional<StrategyKind> parseStrategyKind(
    std::string_view name);
/// All kinds, in flag order — for tools that sweep every strategy.
[[nodiscard]] const std::vector<StrategyKind>& allStrategies();

[[nodiscard]] std::unique_ptr<SearchStrategy> makeStrategy(StrategyKind kind,
                                                           const Budget& budget);

/// Builds the legal parameter space for one analyzed kernel — the line
/// search's own grids (opt::unrollGrid & co.), so every strategy explores
/// the space the paper's search explores.
[[nodiscard]] opt::ParamSpace spaceFor(const fko::AnalysisReport& report,
                                       const arch::MachineConfig& machine,
                                       const SearchConfig& config);

/// The budgeted driver loop: evaluates the strategy's proposals through
/// `evaluator` (search::Orchestrator's cached, optionally parallel one)
/// until the strategy finishes or the budget is spent.
///
/// Deferred warm-start: called once, right after the DEFAULTS evaluation,
/// with its outcome (counters included).  Returning a TuningParams makes it
/// the "WISDOM" warm point — this is how wisdom lookups use the kernel's
/// own attribution as the similarity probe for the performance-nearest
/// record.  Must be deterministic (outcomes are); supersedes `warmStart`
/// when both are given.
using WarmStartFn =
    std::function<std::optional<opt::TuningParams>(const EvalOutcome&)>;

/// `warmStart` (optional) is a previously known winner — a wisdom record's
/// parameters — evaluated immediately after DEFAULTS as the "WISDOM"
/// dimension so it becomes the incumbent the search must beat.  It counts
/// against the budget like any observed candidate but is never reported to
/// the strategy: proposal sequences are identical with or without it.
/// `warmStartFn` defers that choice until the DEFAULTS outcome is known.
[[nodiscard]] TuneResult runStrategySearch(
    const std::string& hilSource, const arch::MachineConfig& machine,
    const SearchConfig& config, SearchStrategy& strategy, const Budget& budget,
    Evaluator& evaluator, const opt::TuningParams* warmStart = nullptr,
    const WarmStartFn& warmStartFn = {});

/// One search with `kind` on an in-memory search::Orchestrator with one
/// worker (no cache file, no trace, no quarantine); tuneKernel and
/// tuneSource are these with StrategyKind::Line and an unlimited budget.
[[nodiscard]] TuneResult tuneKernelWithStrategy(const kernels::KernelSpec& spec,
                                                const arch::MachineConfig& machine,
                                                const SearchConfig& config,
                                                StrategyKind kind,
                                                const Budget& budget);
[[nodiscard]] TuneResult tuneSourceWithStrategy(const std::string& hilSource,
                                                const arch::MachineConfig& machine,
                                                const SearchConfig& config,
                                                StrategyKind kind,
                                                const Budget& budget);

}  // namespace ifko::search
