// The StrategyKind registry and the parameter space every strategy
// searches.  The loop that drives a strategy is search::Orchestrator's.
#include "search/strategy/strategy.h"

#include <algorithm>

#include "search/strategy/strategies_impl.h"

namespace ifko::search {

std::string_view strategyName(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::Line: return "line";
    case StrategyKind::HillClimb: return "hillclimb";
    case StrategyKind::Evolve: return "evolve";
    case StrategyKind::Attribution: return "attribution";
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
      StrategyKind::Line, StrategyKind::HillClimb, StrategyKind::Evolve,
      StrategyKind::Attribution};
  return kAll;
}

std::unique_ptr<SearchStrategy> makeStrategy(StrategyKind kind,
                                             const Budget& budget) {
  switch (kind) {
    case StrategyKind::Line: return makeLineSearchStrategy();
    case StrategyKind::HillClimb:
      return makeAttributionStrategy(budget.seed, /*guided=*/false);
    case StrategyKind::Evolve: return makeEvolutionaryStrategy(budget.seed);
    case StrategyKind::Attribution:
      return makeAttributionStrategy(budget.seed, /*guided=*/true);
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

}  // namespace ifko::search
