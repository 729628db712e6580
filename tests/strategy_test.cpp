// The pluggable search-strategy subsystem (the line search's own results
// are held by search_golden_test): every strategy must be deterministic in
// (seed, budget) at any --jobs, an empty proposal must be final, the
// Budget must be enforced, and the ParamSpace helpers must only ever
// produce legal points.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "arch/machine.h"
#include "opt/paramspace.h"
#include "search/orchestrator.h"
#include "search/strategy/strategy.h"
#include "support/hash.h"
#include "support/json.h"
#include "support/rng.h"

namespace ifko::search {
namespace {

using kernels::BlasOp;
using kernels::KernelSpec;
using opt::TuningParams;

SearchConfig smokeConfig(int jobs = 1) {
  SearchConfig c = SearchConfig::smoke();
  c.jobs = jobs;
  return c;
}

std::string tmpFile(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

opt::ParamSpace spaceForSpec(const KernelSpec& spec,
                             const SearchConfig& config) {
  auto rep = fko::analyzeKernel(spec.hilSource(), arch::p4e());
  EXPECT_TRUE(rep.ok) << rep.error;
  return spaceFor(rep, arch::p4e(), config);
}

bool legal(const opt::ParamSpace& s, const TuningParams& p) {
  if (p.unroll < 1 || p.unroll > s.maxUnroll) return false;
  if (p.accumExpand < 1 || p.accumExpand > p.unroll) return false;
  if (s.accums.empty() && p.accumExpand != 1) return false;
  for (const auto& [name, pref] : p.prefetch)
    if (pref.enabled && pref.distBytes == 0) return false;
  return true;
}

// --- determinism: same seed + budget => same proposals at any --jobs --------

/// The (dim, params) sequence of every proposed candidate, from the trace.
std::vector<std::pair<std::string, std::string>> proposalSequence(
    const std::string& tracePath) {
  std::vector<std::pair<std::string, std::string>> seq;
  std::ifstream in(tracePath);
  EXPECT_TRUE(in.is_open()) << tracePath;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::map<std::string, JsonValue> obj;
    EXPECT_TRUE(parseJsonObject(line, &obj)) << line;
    auto ev = obj.find("event");
    if (ev == obj.end() || ev->second.string != "candidate") continue;
    seq.emplace_back(obj.at("dim").string, obj.at("params").string);
  }
  return seq;
}

TuneResult runTraced(StrategyKind kind, int jobs, const std::string& trace,
                     uint64_t seed = 7, int budget = 40) {
  OrchestratorConfig oc;
  oc.search = smokeConfig(jobs);
  oc.tracePath = trace;
  oc.strategy = kind;
  oc.budget.maxEvaluations = budget;
  oc.budget.seed = seed;
  std::string err;
  Orchestrator orch(arch::p4e(), oc, &err);
  EXPECT_TRUE(err.empty()) << err;
  KernelSpec spec{BlasOp::Axpy, ir::Scal::F64};
  auto out = orch.tune({spec.name(), spec.hilSource(), &spec});
  return out.result;
}

TEST(StrategyDeterminism, SameSeedSameProposalsAtAnyJobs) {
  for (StrategyKind kind : allStrategies()) {
    std::string t1 = tmpFile("strategy_det_j1.jsonl");
    std::string t8 = tmpFile("strategy_det_j8.jsonl");
    TuneResult r1 = runTraced(kind, 1, t1);
    TuneResult r8 = runTraced(kind, 8, t8);
    ASSERT_TRUE(r1.ok) << r1.error;
    ASSERT_TRUE(r8.ok) << r8.error;
    EXPECT_EQ(proposalSequence(t1), proposalSequence(t8))
        << strategyName(kind);
    EXPECT_EQ(r1.best, r8.best) << strategyName(kind);
    EXPECT_EQ(r1.bestCycles, r8.bestCycles) << strategyName(kind);
    EXPECT_EQ(r1.proposals, r8.proposals) << strategyName(kind);
    EXPECT_EQ(r1.frontier, r8.frontier) << strategyName(kind);
    EXPECT_EQ(r1.ledger, r8.ledger) << strategyName(kind);
    std::remove(t1.c_str());
    std::remove(t8.c_str());
  }
}

TEST(StrategyDeterminism, WarmCacheDoesNotChangeTrajectory) {
  // The budget counts cached observations too, so a second run over a
  // persistent cache must propose the same sequence and land on the same
  // best point.
  std::string cachePath = tmpFile("strategy_warm.cache.jsonl");
  std::remove(cachePath.c_str());
  KernelSpec spec{BlasOp::Scal, ir::Scal::F64};
  int warmRuns = -1;
  auto run = [&] {
    OrchestratorConfig oc;
    oc.search = smokeConfig(2);
    oc.cachePath = cachePath;
    oc.strategy = StrategyKind::Evolve;
    oc.budget.maxEvaluations = 24;
    oc.budget.seed = 11;
    std::string err;
    Orchestrator orch(arch::p4e(), oc, &err);
    EXPECT_TRUE(err.empty()) << err;
    KernelOutcome out = orch.tune({spec.name(), spec.hilSource(), &spec});
    warmRuns = out.evaluationsRun;
    return out.result;
  };
  TuneResult cold = run();
  TuneResult warm = run();
  ASSERT_TRUE(cold.ok && warm.ok);
  EXPECT_EQ(cold.best, warm.best);
  EXPECT_EQ(cold.bestCycles, warm.bestCycles);
  EXPECT_EQ(cold.proposals, warm.proposals);
  EXPECT_EQ(cold.frontier, warm.frontier);
  EXPECT_EQ(warmRuns, 0);  // everything served from the cache
  EXPECT_EQ(warm.evaluations, cold.evaluations);
  std::remove(cachePath.c_str());
}

TEST(StrategyDeterminism, DifferentSeedsDiverge) {
  KernelSpec spec{BlasOp::Axpy, ir::Scal::F64};
  Budget b1, b2;
  b1.maxEvaluations = b2.maxEvaluations = 24;
  b1.seed = 1;
  b2.seed = 2;
  TuneResult r1 = tuneKernel(spec, arch::p4e(), smokeConfig(),
                             StrategyKind::Evolve, b1);
  TuneResult r2 = tuneKernel(spec, arch::p4e(), smokeConfig(),
                             StrategyKind::Evolve, b2);
  ASSERT_TRUE(r1.ok && r2.ok);
  // Same kernel, same budget: the frontiers (which candidates improved,
  // when) should differ between seeds on any non-trivial space.
  EXPECT_NE(r1.frontier, r2.frontier);
}

// --- budget enforcement -----------------------------------------------------

TEST(Budget, CapsObservedCandidates) {
  // Exact at every budget: on dasum, 12 truncates evolve's first
  // generation (15 candidates after DEFAULTS), and 16 and 32 stop it on a
  // generation boundary.  The swaps have two prefetchable arrays, so the
  // line search's PF DST dimension spans several batches: these budgets
  // stop it between two of them, or inside one.
  struct Case {
    KernelSpec spec;
    std::vector<int> budgets;
  };
  const Case cases[] = {
      {{BlasOp::Asum, ir::Scal::F64}, {12, 16, 32}},
      {{BlasOp::Swap, ir::Scal::F32}, {8}},
      {{BlasOp::Swap, ir::Scal::F64}, {3, 4, 5, 6, 7, 8, 9}},
  };
  for (const Case& c : cases) {
    for (int budget : c.budgets) {
      for (StrategyKind kind : allStrategies()) {
        const std::string what = c.spec.name() + " " +
                                 std::string(strategyName(kind)) + "@" +
                                 std::to_string(budget);
        Budget b;
        b.maxEvaluations = budget;
        TuneResult r = tuneKernel(c.spec, arch::p4e(), smokeConfig(), kind, b);
        ASSERT_TRUE(r.ok) << what << ": " << r.error;
        EXPECT_GE(r.proposals, 1) << what;
        EXPECT_LE(r.proposals, budget) << what;
        EXPECT_LE(r.evaluations, r.proposals) << what;
        ASSERT_FALSE(r.frontier.empty()) << what;
        EXPECT_EQ(r.frontier.front().proposals, 1);
        EXPECT_EQ(r.frontier.front().cycles, r.defaultCycles);
        EXPECT_EQ(r.frontier.back().cycles, r.bestCycles);
        // The batch the budget stopped reaches the ledger too.
        ASSERT_FALSE(r.ledger.empty()) << what;
        EXPECT_EQ(r.ledger.back().cyclesAfter, r.bestCycles) << what;
      }
    }
  }
}

TEST(Budget, CycleBudgetStopsTheSearch) {
  KernelSpec spec{BlasOp::Dot, ir::Scal::F64};
  Budget tight;
  tight.maxCycles = 1;  // the DEFAULTS point already exhausts it
  TuneResult r = tuneKernel(spec, arch::p4e(), smokeConfig(),
                            StrategyKind::Evolve, tight);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.proposals, 1);
  EXPECT_EQ(r.bestCycles, r.defaultCycles);
}

TEST(Budget, UnlimitedFlag) {
  EXPECT_TRUE(Budget{}.unlimited());
  Budget b;
  b.maxEvaluations = 1;
  EXPECT_FALSE(b.unlimited());
  Budget c;
  c.maxCycles = 1;
  EXPECT_FALSE(c.unlimited());
}

// --- the strategy registry --------------------------------------------------

TEST(StrategyRegistry, NamesRoundTrip) {
  for (StrategyKind kind : allStrategies()) {
    auto parsed = parseStrategyKind(strategyName(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
    EXPECT_NE(makeStrategy(kind, {}), nullptr);
  }
  EXPECT_FALSE(parseStrategyKind("annealing").has_value());
  EXPECT_FALSE(parseStrategyKind("random").has_value());
  EXPECT_FALSE(parseStrategyKind("bandit").has_value());
  EXPECT_FALSE(parseStrategyKind("").has_value());
}

TEST(StrategyContract, AnEmptyProposalIsFinal) {
  // The loop stops at the first empty proposal, so that is the one signal
  // a strategy has for "finished": driven to exhaustion with synthetic
  // outcomes, every kind must keep proposing nothing and keep its ledger.
  const KernelSpec spec{BlasOp::Axpy, ir::Scal::F64};
  const opt::ParamSpace space = spaceForSpec(spec, smokeConfig());
  const TuningParams defaults = fkoDefaults(
      fko::analyzeKernel(spec.hilSource(), arch::p4e()), arch::p4e());
  auto outcome = [](const TuningParams& p) {
    EvalOutcome o;
    o.cycles = 1000 + fnv1a(opt::formatTuningSpec(p)) % 1000;
    return o;
  };
  for (StrategyKind kind : allStrategies()) {
    Budget b;
    b.seed = 5;
    std::unique_ptr<SearchStrategy> s = makeStrategy(kind, b);
    s->init(space, defaults);
    s->observe(defaults, outcome(defaults));
    int proposals = 0;
    for (Proposal p = s->propose(); !p.candidates.empty(); p = s->propose()) {
      for (const TuningParams& c : p.candidates) s->observe(c, outcome(c));
      proposals += static_cast<int>(p.candidates.size());
      ASSERT_LT(proposals, 100000) << strategyName(kind) << " never finishes";
    }
    EXPECT_GT(proposals, 0) << strategyName(kind);
    const std::vector<DimensionResult> ledger = s->ledger();
    EXPECT_TRUE(s->propose().candidates.empty()) << strategyName(kind);
    EXPECT_EQ(s->ledger(), ledger) << strategyName(kind);
  }
}

// --- ParamSpace: grids, legality, neighborhood moves ------------------------

TEST(ParamSpaceGrids, MatchTheLineSearchSweeps) {
  EXPECT_EQ(opt::unrollGrid(false, 128),
            (std::vector<int>{1, 2, 3, 4, 5, 6, 8, 12, 16, 24, 32, 64, 128}));
  EXPECT_EQ(opt::unrollGrid(false, 10), (std::vector<int>{1, 2, 3, 4, 5, 6, 8}));
  EXPECT_EQ(opt::unrollGrid(true, 128), (std::vector<int>{1, 2, 4, 8}));
  EXPECT_EQ(opt::accumGrid(false), (std::vector<int>{1, 2, 3, 4, 5, 8, 16}));
  EXPECT_EQ(opt::accumGrid(true), (std::vector<int>{1, 2, 4}));
  EXPECT_EQ(opt::prefDistMultGrid(true), (std::vector<int>{0, 2, 16}));
  EXPECT_EQ(opt::prefDistMultGrid(false),
            (std::vector<int>{0, 1, 2, 3, 4, 6, 8, 12, 16, 20, 24, 28, 32}));
}

TEST(ParamSpaceTest, SpaceForReflectsTheKernel) {
  // ddot: two loaded arrays, no stores, accumulators present.
  opt::ParamSpace dot = spaceForSpec(KernelSpec{BlasOp::Dot, ir::Scal::F64},
                                     smokeConfig());
  EXPECT_FALSE(dot.wnt);
  EXPECT_FALSE(dot.accums.empty());
  EXPECT_EQ(dot.prefArrays.size(), 2u);
  EXPECT_TRUE(dot.reduced);
  EXPECT_GT(dot.size(), 1u);

  // dcopy: stores to Y, no reduction.
  opt::ParamSpace copy = spaceForSpec(KernelSpec{BlasOp::Copy, ir::Scal::F64},
                                      smokeConfig());
  EXPECT_TRUE(copy.wnt);
  EXPECT_TRUE(copy.accums.empty());
}

TEST(ParamSpaceTest, SampleAlwaysLegal) {
  opt::ParamSpace s =
      spaceForSpec(KernelSpec{BlasOp::Axpy, ir::Scal::F64}, smokeConfig());
  auto rep = fko::analyzeKernel(
      KernelSpec{BlasOp::Axpy, ir::Scal::F64}.hilSource(), arch::p4e());
  TuningParams base = fkoDefaults(rep, arch::p4e());
  SplitMix64 rng(123);
  for (int i = 0; i < 200; ++i) {
    TuningParams p = s.sample(base, rng);
    EXPECT_TRUE(legal(s, p)) << opt::formatTuningSpec(p);
  }
}

TEST(ParamSpaceTest, NeighborsAreLegalDedupedAndExcludeSelf) {
  opt::ParamSpace s =
      spaceForSpec(KernelSpec{BlasOp::Dot, ir::Scal::F64}, SearchConfig{});
  auto rep = fko::analyzeKernel(KernelSpec{BlasOp::Dot, ir::Scal::F64}.hilSource(),
                                arch::p4e());
  TuningParams base = fkoDefaults(rep, arch::p4e());
  std::vector<TuningParams> nb = s.neighbors(base);
  ASSERT_FALSE(nb.empty());
  std::set<std::string> keys;
  const std::string self = opt::formatTuningSpec(base);
  for (const TuningParams& p : nb) {
    EXPECT_TRUE(legal(s, p)) << opt::formatTuningSpec(p);
    std::string key = opt::formatTuningSpec(p);
    EXPECT_NE(key, self);
    EXPECT_TRUE(keys.insert(key).second) << "duplicate neighbor " << key;
  }
}

TEST(ParamSpaceTest, MutateAndCrossoverStayLegal) {
  opt::ParamSpace s =
      spaceForSpec(KernelSpec{BlasOp::Axpy, ir::Scal::F32}, SearchConfig{});
  auto rep = fko::analyzeKernel(
      KernelSpec{BlasOp::Axpy, ir::Scal::F32}.hilSource(), arch::p4e());
  TuningParams base = fkoDefaults(rep, arch::p4e());
  SplitMix64 rng(99);
  TuningParams a = s.sample(base, rng);
  TuningParams b = s.sample(base, rng);
  for (int i = 0; i < 100; ++i) {
    TuningParams child = s.crossover(a, b, rng);
    EXPECT_TRUE(legal(s, child)) << opt::formatTuningSpec(child);
    TuningParams m = s.mutate(child, rng);
    EXPECT_TRUE(legal(s, m)) << opt::formatTuningSpec(m);
    a = child;
    b = m;
  }
}

TEST(ParamSpaceTest, ClampEnforcesTheConstraints) {
  opt::ParamSpace s;
  s.unrolls = {1, 2, 4};
  s.accums = {1, 2};
  s.maxUnroll = 4;
  TuningParams p;
  p.unroll = 64;
  p.accumExpand = 16;
  TuningParams c = s.clamp(p);
  EXPECT_EQ(c.unroll, 4);
  EXPECT_LE(c.accumExpand, c.unroll);
  p.unroll = 0;
  p.accumExpand = 0;
  c = s.clamp(p);
  EXPECT_EQ(c.unroll, 1);
  EXPECT_EQ(c.accumExpand, 1);
}

// --- stochastic strategies find real improvements ---------------------------

TEST(Strategies, StochasticSearchesImproveOnDefaults) {
  // At a healthy budget every strategy should at least match the FKO
  // defaults, and on dscal (WNT + prefetch + UR all live) improve on them.
  KernelSpec spec{BlasOp::Scal, ir::Scal::F64};
  for (StrategyKind kind : allStrategies()) {
    Budget b;
    b.maxEvaluations = 48;
    TuneResult r = tuneKernel(spec, arch::p4e(), smokeConfig(), kind, b);
    ASSERT_TRUE(r.ok) << strategyName(kind) << ": " << r.error;
    EXPECT_LE(r.bestCycles, r.defaultCycles) << strategyName(kind);
    EXPECT_LT(r.bestCycles, r.defaultCycles) << strategyName(kind);
  }
}

// --- attribution-guided search ---------------------------------------------

TEST(AttributionStrategy, TargetsTheDominantStallCause) {
  // daxpy out-of-cache is memory-bound, so the guided climber's first
  // steps must be targeted ("ATTR mem ..."), not blind.
  std::string trace = tmpFile("strategy_attr_dims.jsonl");
  TuneResult r = runTraced(StrategyKind::Attribution, 1, trace, 7, 40);
  ASSERT_TRUE(r.ok) << r.error;
  bool sawTargeted = false;
  for (const auto& [dim, params] : proposalSequence(trace))
    sawTargeted |= dim.rfind("ATTR mem", 0) == 0 ||
                   dim.rfind("ATTR fp", 0) == 0 ||
                   dim.rfind("ATTR pipe", 0) == 0;
  EXPECT_TRUE(sawTargeted);
  std::remove(trace.c_str());
}

TEST(AttributionStrategy, MatchesOrBeatsHillClimbOnMemBoundKernel) {
  // The equal-budget claim the CI gate enforces fleet-wide, at unit scale:
  // on a memory-bound kernel the attribution signal must not lose to the
  // blind climber it extends.
  KernelSpec spec{BlasOp::Scal, ir::Scal::F64};
  Budget b;
  b.maxEvaluations = 32;
  TuneResult attr = tuneKernel(spec, arch::p4e(), smokeConfig(),
                               StrategyKind::Attribution, b);
  TuneResult hill = tuneKernel(spec, arch::p4e(), smokeConfig(),
                               StrategyKind::HillClimb, b);
  ASSERT_TRUE(attr.ok) << attr.error;
  ASSERT_TRUE(hill.ok) << hill.error;
  EXPECT_LE(attr.bestCycles, hill.bestCycles);
}

}  // namespace
}  // namespace ifko::search
