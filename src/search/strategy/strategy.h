// Pluggable search strategies: the empirical search as a subsystem.
//
// The paper hard-codes one search — the modified line search of Section
// 2.3 — and names smarter searches as the obvious next step.  This layer
// factors the search policy out of the evaluation machinery behind a
// three-call interface (plus an optional progress ledger):
//
//   init(space, defaults)   the legal space and FKO's start point
//   propose()               the next batch to evaluate (empty = finished)
//   observe(spec, outcome)  one result per proposed candidate, in order
//
// Four strategies implement it: the paper's line search, hillclimb and
// attribution (one climber, guidance off and on), and evolve.
//
// search::Orchestrator runs the loop and owns everything else: it
// evaluates each proposal through its worker pool, persistent cache and
// JSONL trace, tracks the best-so-far frontier, and enforces the shared
// Budget (search/linesearch.h).
//
// Determinism contract: a strategy's proposal sequence is a pure function
// of (space, defaults, budget seed, observed outcomes).  Outcomes are
// deterministic (the simulator is), the loop observes a batch in proposal
// order regardless of evaluation order, and a strategy decides its own
// batch sizes — so the same seed and budget reproduce the same proposals
// and the same best-found spec at any --jobs value, warm or cold cache.
//
// Budget semantics: maxEvaluations counts every observed candidate
// (including the DEFAULTS point, cached or not — so a warm cache cannot
// change the search trajectory), maxCycles bounds the total simulated
// cycles spent; 0 disables either limit.  maxEvaluations is exact: the
// loop truncates the batch that would cross it, so a strategy may observe
// only a prefix of its last proposal.  maxCycles is known only after
// timing, so it is checked after each batch.  Either way the loop then
// calls propose() once more and discards the result, so the strategy
// settles — and ledgers — the last batch it observed.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "opt/paramspace.h"
#include "search/linesearch.h"

namespace ifko::search {

/// One batch of candidates from a strategy.  `dimension` labels the batch
/// for trace events and dimension ledgers ("WNT", "CLIMB 2", "GEN 3", ...).
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
  /// Called once, before any propose.
  virtual void init(const opt::ParamSpace& space,
                    const opt::TuningParams& defaults) = 0;
  /// The next batch.  An empty proposal means the strategy is finished;
  /// every later propose is empty too and leaves the ledger unchanged.
  [[nodiscard]] virtual Proposal propose() = 0;
  /// One call per proposed candidate, in proposal order, before the next
  /// propose — except that a budget-truncated last batch is observed only
  /// up to the budget.  The loop also reports the DEFAULTS point first.
  virtual void observe(const opt::TuningParams& spec,
                       const EvalOutcome& outcome) = 0;
  /// Progress ledger for TuneResult/trace: the line search fills the
  /// paper's Figure-7 dimensions; stochastic strategies report rounds.
  [[nodiscard]] virtual std::vector<DimensionResult> ledger() const {
    return {};
  }
};

/// Flag spellings: "line", "hillclimb", "evolve", "attribution".
[[nodiscard]] std::string_view strategyName(StrategyKind kind);
[[nodiscard]] std::optional<StrategyKind> parseStrategyKind(
    std::string_view name);
/// All kinds, in flag order — for tools that sweep every strategy.
[[nodiscard]] const std::vector<StrategyKind>& allStrategies();

/// A fresh strategy of `kind`, seeded from budget.seed.  HillClimb is the
/// attribution climber with its guidance off.
[[nodiscard]] std::unique_ptr<SearchStrategy> makeStrategy(StrategyKind kind,
                                                           const Budget& budget);

/// Builds the legal parameter space for one analyzed kernel — the line
/// search's own grids (opt::unrollGrid & co.), so every strategy explores
/// the space the paper's search explores.
[[nodiscard]] opt::ParamSpace spaceFor(const fko::AnalysisReport& report,
                                       const arch::MachineConfig& machine,
                                       const SearchConfig& config);

}  // namespace ifko::search
