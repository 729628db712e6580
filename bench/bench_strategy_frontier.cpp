// Best-cycles-vs-evaluations frontier of every search strategy, per kernel.
//
// Each strategy gets the same evaluation budget (IFKO_BUDGET, default 64)
// and the same seed (IFKO_SEED, default 1); the search's FrontierPoint
// curve records when each improvement landed.  stdout is machine-readable
// JSONL — one flat object per frontier point:
//
//   {"kernel":..,"strategy":..,"proposals":..,"cycles":..}
//
// and one summary object per kernel x strategy:
//
//   {"kernel":..,"strategy":..,"summary":1,"best_cycles":..,
//    "proposals":..,"evaluations":..,"beats_line":0|1}
//
// (flat, because support/json's reader is a flat-object parser).  The
// human-readable table — and whether some non-line strategy matched or
// beat the line search anywhere, the claim the pluggable subsystem rides
// on — goes to stderr.
#include <cstdio>
#include <vector>

#include "harness.h"
#include "search/strategy/strategy.h"
#include "support/json.h"

int main() {
  using namespace ifko;
  auto sz = bench::sizes();
  const int budget = static_cast<int>(envInt("IFKO_BUDGET", 64));
  const uint64_t seed = static_cast<uint64_t>(envInt("IFKO_SEED", 1));
  search::SearchConfig cfg =
      bench::tuneConfig(sz.ooc, sim::TimeContext::OutOfCache, sz.fast);
  const arch::MachineConfig machine = arch::p4e();

  search::Budget b;
  b.maxEvaluations = budget;
  b.seed = seed;

  TextTable t;
  {
    std::vector<std::string> header = {"kernel"};
    for (search::StrategyKind k : search::allStrategies())
      header.push_back(std::string(search::strategyName(k)));
    t.setHeader(header);
  }

  int lineMatchedOrBeaten = 0;
  for (const auto& spec : kernels::allKernels()) {
    std::vector<std::string> cells = {spec.name()};
    uint64_t lineBest = 0;
    for (search::StrategyKind kind : search::allStrategies()) {
      auto r = search::tuneKernel(spec, machine, cfg, kind, b);
      if (!r.ok) {
        cells.push_back("-");
        continue;
      }
      const std::string strategy(search::strategyName(kind));
      for (const auto& fp : r.frontier) {
        JsonWriter w;
        w.field("kernel", spec.name())
            .field("strategy", strategy)
            .field("proposals", fp.proposals)
            .field("cycles", fp.cycles);
        std::printf("%s\n", w.str().c_str());
      }
      if (kind == search::StrategyKind::Line) lineBest = r.bestCycles;
      const bool beatsLine = kind != search::StrategyKind::Line &&
                             lineBest != 0 && r.bestCycles <= lineBest;
      if (beatsLine) ++lineMatchedOrBeaten;
      JsonWriter w;
      w.field("kernel", spec.name())
          .field("strategy", strategy)
          .field("summary", 1)
          .field("best_cycles", r.bestCycles)
          .field("proposals", r.proposals)
          .field("evaluations", r.evaluations)
          .field("beats_line", beatsLine ? 1 : 0);
      std::printf("%s\n", w.str().c_str());
      cells.push_back(std::to_string(r.bestCycles) + " @" +
                      std::to_string(r.proposals));
    }
    t.addRow(cells);
    std::fprintf(stderr, "  %-8s done\n", spec.name().c_str());
  }

  std::fprintf(stderr,
               "\n=== strategy frontier: %s, N=%lld, budget %d, seed %llu ===\n"
               "(best cycles @ proposals spent)\n\n%s\n"
               "non-line strategies matching or beating line search at equal "
               "budget: %d kernel/strategy pairs\n",
               machine.name.c_str(), static_cast<long long>(cfg.n), budget,
               static_cast<unsigned long long>(seed), t.str().c_str(),
               lineMatchedOrBeaten);
  return 0;
}
