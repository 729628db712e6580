// The strategy driver loop and the StrategyKind registry.
//
// runStrategySearch owns everything the strategies must not: evaluation
// (through any search::Evaluator, so the orchestrator's pool/cache/trace
// serve every strategy), the best-so-far frontier, dimension-ledger event
// relay, and Budget enforcement.  Strategies only decide what to try next.
#include "search/strategy/strategy.h"

#include <algorithm>

#include "search/orchestrator.h"
#include "search/strategy/strategies_impl.h"

namespace ifko::search {

std::string_view strategyName(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::Line: return "line";
    case StrategyKind::Random: return "random";
    case StrategyKind::HillClimb: return "hillclimb";
    case StrategyKind::Evolve: return "evolve";
    case StrategyKind::Attribution: return "attribution";
    case StrategyKind::Bandit: return "bandit";
  }
  return "?";
}

std::optional<StrategyKind> parseStrategyKind(std::string_view name) {
  for (StrategyKind k : allStrategies())
    if (strategyName(k) == name) return k;
  return std::nullopt;
}

const std::vector<StrategyKind>& allStrategies() {
  static const std::vector<StrategyKind> kAll = {
      StrategyKind::Line,   StrategyKind::Random,
      StrategyKind::HillClimb, StrategyKind::Evolve,
      StrategyKind::Attribution, StrategyKind::Bandit};
  return kAll;
}

std::unique_ptr<SearchStrategy> makeStrategy(StrategyKind kind,
                                             const Budget& budget) {
  switch (kind) {
    case StrategyKind::Line: return makeLineSearchStrategy();
    case StrategyKind::Random: return makeRandomStrategy(budget.seed);
    case StrategyKind::HillClimb: return makeHillClimbStrategy(budget.seed);
    case StrategyKind::Evolve: return makeEvolutionaryStrategy(budget.seed);
    case StrategyKind::Attribution:
      return makeAttributionStrategy(budget.seed);
    case StrategyKind::Bandit: return makeBanditStrategy(budget.seed);
  }
  return makeLineSearchStrategy();
}

opt::ParamSpace spaceFor(const fko::AnalysisReport& report,
                         const arch::MachineConfig& machine,
                         const SearchConfig& config) {
  opt::ParamSpace s;
  s.reduced = config.reducedGrids();
  s.maxUnroll = std::max(1, report.maxUnroll);
  s.unrolls = opt::unrollGrid(s.reduced, report.maxUnroll);
  if (report.numAccumulators > 0) s.accums = opt::accumGrid(s.reduced);
  const int line = machine.lineBytes();
  for (int mult : opt::prefDistMultGrid(s.reduced))
    s.prefDistBytes.push_back(mult * line);
  s.prefKinds = report.prefKinds;
  for (const auto& a : report.arrays) {
    if (a.prefetchable) s.prefArrays.push_back(a.name);
    if (a.stored) s.wnt = true;
  }
  s.extensions = config.searchExtensions;
  return s;
}

namespace {

/// The fixed batch-size ceiling handed to propose().  Deliberately not
/// derived from config.jobs: the hint shapes the proposal sequence, and
/// that sequence must be identical at every --jobs value.
constexpr int kBatchHint = 16;

}  // namespace

TuneResult runStrategySearch(const std::string& hilSource,
                             const arch::MachineConfig& machine,
                             const SearchConfig& config,
                             SearchStrategy& strategy, const Budget& budget,
                             Evaluator& eval, const opt::TuningParams* warmStart,
                             const WarmStartFn& warmStartFn) {
  TuneResult result;
  result.analysis = fko::analyzeKernel(hilSource, machine);
  if (!result.analysis.ok) {
    result.error = result.analysis.error;
    return result;
  }

  const opt::ParamSpace space = spaceFor(result.analysis, machine, config);
  const opt::TuningParams defaults = fkoDefaults(result.analysis, machine);
  result.defaults = defaults;
  strategy.init(space, defaults);

  // The DEFAULTS point anchors every strategy (and the budget: it is
  // proposal #1, so a warm cache cannot change the trajectory).
  const EvalOutcome def = eval.evaluateBatch({defaults}, "DEFAULTS")[0];
  if (def.cycles == 0) {
    result.error = "default parameters failed to compile/time";
    result.evaluations = eval.evaluations();
    return result;
  }
  strategy.observe(defaults, def);
  result.defaultCycles = def.cycles;

  opt::TuningParams best = defaults;
  uint64_t bestCycles = def.cycles;
  int proposals = 1;
  uint64_t cyclesSpent = def.cycles;
  result.frontier.push_back({proposals, bestCycles});

  // Warm start: time the remembered winner once, up front.  A failing or
  // slower-than-defaults warm point simply never becomes the incumbent —
  // stale wisdom can cost one evaluation, never the result.  The deferred
  // form sees the DEFAULTS outcome first, so a wisdom lookup can rank its
  // candidates by similarity to this kernel's own attribution.
  std::optional<opt::TuningParams> deferredWarm;
  if (warmStartFn) {
    deferredWarm = warmStartFn(def);
    warmStart = deferredWarm.has_value() ? &*deferredWarm : nullptr;
  }
  if (warmStart != nullptr && !(*warmStart == defaults)) {
    const EvalOutcome warm = eval.evaluateBatch({*warmStart}, "WISDOM")[0];
    ++proposals;
    cyclesSpent += warm.cycles;
    if (warm.usable() && warm.cycles < bestCycles) {
      bestCycles = warm.cycles;
      best = *warmStart;
      result.frontier.push_back({proposals, bestCycles});
    }
  }

  // Relays new dimension-ledger entries to the evaluator as dimension_end
  // events, preserving the evaluate -> dimension_end -> next-dimension
  // order the line search has always traced.
  size_t ledgerSent = 0;
  auto flushLedger = [&] {
    std::vector<DimensionResult> led = strategy.ledger();
    for (; ledgerSent < led.size(); ++ledgerSent)
      eval.onDimensionEnd(led[ledgerSent].name, led[ledgerSent].cyclesAfter,
                          best);
  };

  auto budgetSpent = [&] {
    if (budget.maxEvaluations > 0 && proposals >= budget.maxEvaluations)
      return true;
    if (budget.maxCycles > 0 && cyclesSpent >= budget.maxCycles) return true;
    return false;
  };

  while (!budgetSpent() && !strategy.done()) {
    int hint = kBatchHint;
    if (budget.maxEvaluations > 0)
      hint = std::min(hint, budget.maxEvaluations - proposals);
    Proposal p = strategy.propose(hint);
    flushLedger();
    if (p.candidates.empty()) break;
    const std::vector<EvalOutcome> outcomes =
        eval.evaluateBatch(p.candidates, p.dimension);
    for (size_t i = 0; i < p.candidates.size(); ++i) {
      strategy.observe(p.candidates[i], outcomes[i]);
      ++proposals;
      cyclesSpent += outcomes[i].cycles;
      if (outcomes[i].cycles != 0 && outcomes[i].cycles < bestCycles) {
        bestCycles = outcomes[i].cycles;
        best = p.candidates[i];
        result.frontier.push_back({proposals, bestCycles});
      }
    }
  }
  flushLedger();

  result.best = best;
  result.bestCycles = bestCycles;
  result.ledger = strategy.ledger();
  result.evaluations = eval.evaluations();
  result.proposals = proposals;
  result.ok = true;
  return result;
}

namespace {

/// One search on an in-memory orchestrator with one worker: no cache file,
/// no trace, and no quarantine (every candidate's failure is just a
/// failed candidate, as in a plain serial search).
TuneResult tuneInMemory(const KernelJob& job,
                        const arch::MachineConfig& machine,
                        const SearchConfig& config, StrategyKind kind,
                        const Budget& budget) {
  OrchestratorConfig oc;
  oc.search = config;
  oc.search.jobs = 1;
  oc.strategy = kind;
  oc.budget = budget;
  oc.quarantineAfter = 0;
  Orchestrator orch(machine, oc);
  return orch.tune(job).result;
}

}  // namespace

TuneResult tuneKernelWithStrategy(const kernels::KernelSpec& spec,
                                  const arch::MachineConfig& machine,
                                  const SearchConfig& config, StrategyKind kind,
                                  const Budget& budget) {
  return tuneInMemory({spec.name(), spec.hilSource(), &spec}, machine, config,
                      kind, budget);
}

TuneResult tuneSourceWithStrategy(const std::string& hilSource,
                                  const arch::MachineConfig& machine,
                                  const SearchConfig& config, StrategyKind kind,
                                  const Budget& budget) {
  return tuneInMemory({"kernel", hilSource, nullptr}, machine, config, kind,
                      budget);
}

}  // namespace ifko::search
