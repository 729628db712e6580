// Head-to-head comparison of the search strategies at equal budget.
//
//   strategy_compare [--arch=p4e|opteron] [--context=ooc|inl2] [--n=N]
//                    [--fast] [--budget=N] [--search-seed=S]
//                    [--kernel=NAME]... [--gate]
//
// For each registry kernel (or the --kernel subset), the line search runs
// first — unlimited unless --budget is given — and its proposal count
// becomes the budget for every other strategy.
// The table reports best cycles (and proposals used) per kernel x strategy,
// with the per-kernel winner marked '*'.
//
// --gate turns the comparison into a pass/fail search-quality check (the
// CI step runs it at --fast --budget=32): attribution must match-or-beat
// hillclimb on every kernel — it searches a superset of the climber's
// neighborhood, so any loss means the guidance regressed — and strictly
// beat it somewhere, so the attribution signal is demonstrably pulling
// its weight.
// The simulator and every strategy are deterministic at a fixed seed, so
// the gate is exactly reproducible locally.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "arch/machine.h"
#include "kernels/registry.h"
#include "search/strategy/strategy.h"
#include "sim/timer.h"
#include "support/str.h"
#include "support/table.h"

using namespace ifko;

namespace {

/// Strictly validated flag value: "--n=80k" is an error, not a silent
/// fallback (support/str's parseInt64 is the shared strict parser).
int64_t numFlag(const char* name, const char* v) {
  int64_t out = 0;
  if (!parseInt64(v, &out)) {
    std::fprintf(stderr, "bad %s (want integer): '%s'\n", name, v);
    std::exit(2);
  }
  return out;
}

/// The driver's arch and context parsers, with the driver's error text.
arch::MachineConfig archFlag(const char* v) {
  auto machine = arch::parseArchFlag(v);
  if (!machine.has_value()) {
    std::fprintf(stderr, "unknown arch '%s' (want p4e|opteron)\n", v);
    std::exit(2);
  }
  return *machine;
}

sim::TimeContext contextFlag(const char* v) {
  auto ctx = sim::parseContextFlag(v);
  if (!ctx.has_value()) {
    std::fprintf(stderr, "unknown context '%s' (want ooc|inl2)\n", v);
    std::exit(2);
  }
  return *ctx;
}

}  // namespace

int main(int argc, char** argv) {
  arch::MachineConfig machine = arch::p4e();
  sim::TimeContext context = sim::TimeContext::OutOfCache;
  int64_t n = 0;
  bool fast = false;
  int64_t budget = 0;
  uint64_t seed = 1;
  bool gate = false;
  std::vector<std::string> only;

  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--fast") fast = true;
    else if (a == "--gate") gate = true;
    else if (startsWith(a, "--arch=")) machine = archFlag(a.c_str() + 7);
    else if (startsWith(a, "--context="))
      context = contextFlag(a.c_str() + 10);
    else if (startsWith(a, "--n=")) n = numFlag("--n", a.c_str() + 4);
    else if (startsWith(a, "--budget="))
      budget = numFlag("--budget", a.c_str() + 9);
    else if (startsWith(a, "--search-seed="))
      seed = static_cast<uint64_t>(numFlag("--search-seed", a.c_str() + 14));
    else if (startsWith(a, "--kernel=")) only.push_back(a.substr(9));
    else {
      std::fprintf(stderr, "unknown option '%s'\n", a.c_str());
      return 2;
    }
  }

  search::SearchConfig cfg =
      fast ? search::SearchConfig::smoke() : search::SearchConfig{};
  cfg.context = context;
  if (n > 0) cfg.n = n;

  const auto& strategies = search::allStrategies();
  TextTable t;
  {
    std::vector<std::string> header = {"kernel"};
    for (search::StrategyKind k : strategies)
      header.push_back(std::string(search::strategyName(k)));
    t.setHeader(header);
  }

  int kernelsRun = 0;
  std::vector<int> wins(strategies.size(), 0);
  size_t iHill = 0, iAttr = 0;
  for (size_t s = 0; s < strategies.size(); ++s) {
    if (strategies[s] == search::StrategyKind::HillClimb) iHill = s;
    if (strategies[s] == search::StrategyKind::Attribution) iAttr = s;
  }
  bool attrStrictWin = false;
  std::vector<std::string> gateFailures;
  for (const auto& spec : kernels::allKernels()) {
    if (!only.empty()) {
      bool wanted = false;
      for (const auto& name : only) wanted |= name == spec.name();
      if (!wanted) continue;
    }

    // The line search sets the budget: what the paper's search spent.
    search::Budget lineBudget;
    lineBudget.maxEvaluations = static_cast<int>(budget);
    lineBudget.seed = seed;
    std::vector<search::TuneResult> results(strategies.size());
    results[0] = search::tuneKernel(spec, machine, cfg,
                                    search::StrategyKind::Line, lineBudget);
    if (!results[0].ok) {
      std::fprintf(stderr, "%s: line search failed: %s\n",
                   spec.name().c_str(), results[0].error.c_str());
      continue;
    }
    search::Budget matched = lineBudget;
    matched.maxEvaluations = results[0].proposals;
    for (size_t s = 1; s < strategies.size(); ++s)
      results[s] =
          search::tuneKernel(spec, machine, cfg, strategies[s], matched);

    uint64_t best = UINT64_MAX;
    for (const auto& r : results)
      if (r.ok && r.bestCycles < best) best = r.bestCycles;

    std::vector<std::string> cells = {spec.name()};
    for (size_t s = 0; s < strategies.size(); ++s) {
      const search::TuneResult& r = results[s];
      if (!r.ok) {
        cells.push_back("-");
        continue;
      }
      if (r.bestCycles == best) ++wins[s];
      cells.push_back(std::to_string(r.bestCycles) +
                      (r.bestCycles == best ? "*" : "") + " (" +
                      std::to_string(r.proposals) + ")");
    }
    t.addRow(cells);
    ++kernelsRun;
    std::fprintf(stderr, "  %-8s done (budget %d)\n", spec.name().c_str(),
                 matched.maxEvaluations);

    if (gate) {
      const search::TuneResult& attr = results[iAttr];
      const search::TuneResult& hill = results[iHill];
      if (attr.ok && hill.ok) {
        if (attr.bestCycles > hill.bestCycles)
          gateFailures.push_back(
              spec.name() + ": attribution " +
              std::to_string(attr.bestCycles) + " loses to hillclimb " +
              std::to_string(hill.bestCycles));
        else if (attr.bestCycles < hill.bestCycles)
          attrStrictWin = true;
      }
    }
  }

  std::printf("=== strategy comparison: %s, %s, N=%lld, seed %llu ===\n"
              "(best cycles (proposals used); '*' = per-kernel best)\n\n",
              machine.name.c_str(),
              std::string(sim::contextName(context)).c_str(),
              static_cast<long long>(cfg.n),
              static_cast<unsigned long long>(seed));
  std::fputs(t.str().c_str(), stdout);
  std::printf("\nwins (ties count for every winner) over %d kernels:", kernelsRun);
  for (size_t s = 0; s < strategies.size(); ++s)
    std::printf("  %s=%d", std::string(search::strategyName(strategies[s])).c_str(),
                wins[s]);
  std::printf("\n");

  if (gate) {
    if (kernelsRun > 0 && !attrStrictWin)
      gateFailures.push_back(
          "attribution never strictly beat hillclimb on any kernel");
    if (gateFailures.empty()) {
      std::printf("gate: PASS (%d kernels)\n", kernelsRun);
    } else {
      std::printf("gate: FAIL\n");
      for (const auto& f : gateFailures)
        std::printf("  %s\n", f.c_str());
      return 1;
    }
  }
  return kernelsRun > 0 ? 0 : 1;
}
