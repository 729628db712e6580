// Golden snapshot of the search drivers: every registry kernel through
// tuneKernel and every kernels_hil kernel through tuneSource, on both
// machines and in both timing contexts, with smoke grids at N=1024; plus
// every other strategy (attribution, hillclimb, evolve) at budget 16, and
// the line search with the extension transforms (P4E, out-of-cache).
// Each record holds the winner, its cycles, the default cycles, the real
// evaluation count and the per-dimension ledger, so any change to the
// search loop, the evaluator or the tester that moves a winner fails here.
//
// The line-search records carry no proposal count: the serial line search
// the snapshot was recorded from did not count proposals.  The strategy
// records do.
//
// The snapshot is only ever rewritten on purpose, by running the disabled
// test: search_golden_test --gtest_also_run_disabled_tests
// --gtest_filter=SearchGolden.DISABLED_RewriteSnapshot
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "arch/machine.h"
#include "kernels/registry.h"
#include "opt/params.h"
#include "search/linesearch.h"
#include "search/orchestrator.h"
#include "search/strategy/strategy.h"
#include "sim/timer.h"

namespace ifko {
namespace {

constexpr int64_t kN = 1024;

std::string record(const std::string& driver, const std::string& kernel,
                   const std::string& machine, sim::TimeContext ctx,
                   const search::TuneResult& r, bool withProposals) {
  std::ostringstream os;
  os << "{\"driver\":\"" << driver << "\",\"kernel\":\"" << kernel
     << "\",\"machine\":\"" << machine << "\",\"context\":\""
     << sim::contextName(ctx) << "\",\"ok\":" << (r.ok ? "true" : "false");
  if (!r.ok) {
    os << ",\"error\":\"" << r.error << "\"}";
    return os.str();
  }
  os << ",\"best\":\"" << opt::formatTuningSpec(r.best)
     << "\",\"best_cycles\":" << r.bestCycles
     << ",\"default_cycles\":" << r.defaultCycles
     << ",\"evaluations\":" << r.evaluations;
  if (withProposals) os << ",\"proposals\":" << r.proposals;
  os << ",\"ledger\":[";
  for (size_t i = 0; i < r.ledger.size(); ++i)
    os << (i == 0 ? "" : ",") << "[\"" << r.ledger[i].name << "\","
       << r.ledger[i].cyclesAfter << "]";
  os << "]}";
  return os.str();
}

/// The whole snapshot, in a fixed order.
std::vector<std::string> snapshot() {
  std::string err;
  const auto jobs = search::loadKernelDir(IFKO_KERNELS_HIL_DIR, &err);
  EXPECT_EQ(jobs.size(), 24u) << err;
  std::vector<std::string> out;
  for (const arch::MachineConfig& machine : {arch::p4e(), arch::opteron()}) {
    for (sim::TimeContext ctx :
         {sim::TimeContext::OutOfCache, sim::TimeContext::InL2}) {
      search::SearchConfig cfg = search::SearchConfig::smoke();
      cfg.n = kN;
      cfg.context = ctx;
      for (const auto& spec : kernels::allKernels())
        out.push_back(record("tuneKernel", spec.name(), machine.name, ctx,
                             search::tuneKernel(spec, machine, cfg), false));
      for (const auto& job : jobs)
        out.push_back(record("tuneSource", job.name, machine.name, ctx,
                             search::tuneSource(job.hilSource, machine, cfg),
                             false));
    }
  }
  search::SearchConfig cfg = search::SearchConfig::smoke();
  cfg.n = kN;
  for (search::StrategyKind kind :
       {search::StrategyKind::Attribution, search::StrategyKind::HillClimb,
        search::StrategyKind::Evolve}) {
    search::Budget budget;
    budget.maxEvaluations = 16;
    const std::string driver(search::strategyName(kind));
    for (const auto& spec : kernels::allKernels())
      out.push_back(record(driver, spec.name(), arch::p4e().name,
                           sim::TimeContext::OutOfCache,
                           search::tuneKernel(spec, arch::p4e(), cfg, kind,
                                              budget),
                           true));
  }
  cfg.searchExtensions = true;
  for (const auto& spec : kernels::allKernels())
    out.push_back(record("tuneKernel+ext", spec.name(), arch::p4e().name,
                         sim::TimeContext::OutOfCache,
                         search::tuneKernel(spec, arch::p4e(), cfg), false));
  return out;
}

TEST(SearchGolden, MatchesCommittedSnapshot) {
  std::ifstream in(IFKO_SEARCH_GOLDEN_PATH);
  ASSERT_TRUE(in.good()) << "missing " << IFKO_SEARCH_GOLDEN_PATH;
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) golden.push_back(line);

  const std::vector<std::string> now = snapshot();
  const size_t registry = kernels::allKernels().size();
  ASSERT_EQ(now.size(), 2 * 2 * (registry + 24) + 4 * registry);
  ASSERT_EQ(now.size(), golden.size());
  int mismatches = 0;
  for (size_t i = 0; i < now.size(); ++i) {
    if (now[i] == golden[i]) continue;
    if (++mismatches <= 5)
      ADD_FAILURE() << "record " << i << " differs\n  golden: " << golden[i]
                    << "\n  now:    " << now[i];
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(SearchGolden, DISABLED_RewriteSnapshot) {
  const std::vector<std::string> now = snapshot();
  std::ofstream out(IFKO_SEARCH_GOLDEN_PATH, std::ios::trunc);
  ASSERT_TRUE(out.good()) << "cannot write " << IFKO_SEARCH_GOLDEN_PATH;
  for (const auto& line : now) out << line << '\n';
}

}  // namespace
}  // namespace ifko
