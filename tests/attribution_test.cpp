// The cycle-attribution observability layer.
//
// The accounting identity is the load-bearing property: every cycle the
// timing model's completion front advanced is charged to exactly one
// StallCause, so Attribution::total() == cycles() — for every kernel, in
// both timing contexts, at any --jobs.  On top of that, the golden
// semantics tests pin the attributions to the paper's mechanisms: AE
// shrinks the FP-dependence share, PF shrinks the memory-stall share out
// of cache, and WNT on a read-modify-write stream raises it (the NT-flush
// penalty on machines that punish NT stores to cached lines).
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "arch/machine.h"
#include "fko/compiler.h"
#include "kernels/level2.h"
#include "kernels/registry.h"
#include "search/evalcache.h"
#include "search/orchestrator.h"
#include "sim/timer.h"
#include "support/json.h"

namespace ifko {
namespace {

using kernels::BlasOp;
using kernels::KernelSpec;

std::string tmpFile(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

sim::TimeResult timeWith(const KernelSpec& spec, const arch::MachineConfig& m,
                         const opt::TuningParams& tuning, int64_t n,
                         sim::TimeContext ctx) {
  fko::CompileOptions opts;
  opts.tuning = tuning;
  auto r = fko::compileKernel(spec.hilSource(), opts, m);
  EXPECT_TRUE(r.ok) << spec.name() << ": " << r.error;
  return sim::timeKernel(m, r.fn, spec, n, ctx);
}

double share(const sim::Attribution& a, uint64_t part) {
  uint64_t total = a.total();
  return total == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(total);
}

// --- the accounting identity ------------------------------------------------

TEST(Attribution, IdentityHoldsForEveryRegistryKernelInBothContexts) {
  for (const arch::MachineConfig& m : {arch::p4e(), arch::opteron()}) {
    for (const auto& spec : kernels::allKernels()) {
      for (sim::TimeContext ctx :
           {sim::TimeContext::OutOfCache, sim::TimeContext::InL2}) {
        auto t = timeWith(spec, m, opt::TuningParams{}, 512, ctx);
        EXPECT_EQ(t.attr.total(), t.cycles)
            << spec.name() << " on " << m.name << " in "
            << std::string(sim::contextName(ctx));
      }
    }
    // gemv and ger lay out their operands for their own timer, timeGemv.
    for (ir::Scal prec : {ir::Scal::F32, ir::Scal::F64}) {
      for (const std::string& src :
           {kernels::gemvSource(prec), kernels::gerSource(prec)}) {
        auto r = fko::compileKernel(src, fko::CompileOptions{}, m);
        ASSERT_TRUE(r.ok) << r.error;
        for (sim::TimeContext ctx :
             {sim::TimeContext::OutOfCache, sim::TimeContext::InL2}) {
          auto t = kernels::timeGemv(m, r.fn, 16, 512, ctx);
          EXPECT_GT(t.cycles, 0u);
          EXPECT_EQ(t.attr.total(), t.cycles)
              << r.fn.name << " on " << m.name << " in "
              << std::string(sim::contextName(ctx));
        }
      }
    }
  }
}

TEST(Attribution, IdentityHoldsUnderAggressiveTransforms) {
  // Unroll + accumulator expansion + prefetch + NT stores exercise every
  // milestone in the attribution partition (mid-segment memory charges,
  // store drains, unit occupancy, mispredicts from the shorter loop).
  opt::TuningParams p;
  p.unroll = 4;
  p.accumExpand = 4;
  p.nonTemporalWrites = true;
  p.prefetch["X"] = {true, ir::PrefKind::NTA, 1024};
  p.prefetch["Y"] = {true, ir::PrefKind::NTA, 1024};
  for (const arch::MachineConfig& m : {arch::p4e(), arch::opteron()}) {
    for (BlasOp op : {BlasOp::Dot, BlasOp::Axpy, BlasOp::Iamax}) {
      KernelSpec spec{op, ir::Scal::F64};
      for (sim::TimeContext ctx :
           {sim::TimeContext::OutOfCache, sim::TimeContext::InL2}) {
        auto t = timeWith(spec, m, p, 1024, ctx);
        EXPECT_EQ(t.attr.total(), t.cycles)
            << spec.name() << " on " << m.name;
      }
    }
  }
}

// --- golden attribution semantics -------------------------------------------

TEST(Attribution, AccumulatorExpansionShrinksFpChainShare) {
  KernelSpec ddot{BlasOp::Dot, ir::Scal::F64};
  opt::TuningParams base;
  base.unroll = 4;
  base.accumExpand = 1;
  opt::TuningParams expanded = base;
  expanded.accumExpand = 4;

  // In-L2 so memory is quiet and the FP dependence chain dominates.
  auto before = timeWith(ddot, arch::p4e(), base, 1024,
                         sim::TimeContext::InL2);
  auto after = timeWith(ddot, arch::p4e(), expanded, 1024,
                        sim::TimeContext::InL2);
  double beforeShare = share(before.attr, before.attr.of(sim::StallCause::FpDep));
  double afterShare = share(after.attr, after.attr.of(sim::StallCause::FpDep));
  EXPECT_LT(afterShare, beforeShare)
      << "AE should break the single-accumulator FP recurrence";

  // dasum's |x| reduction is entirely FP-chain-bound in L2, so there AE
  // pays off in cycles too, not just in the attribution mix.
  KernelSpec dasum{BlasOp::Asum, ir::Scal::F64};
  auto sumBefore = timeWith(dasum, arch::p4e(), base, 1024,
                            sim::TimeContext::InL2);
  auto sumAfter = timeWith(dasum, arch::p4e(), expanded, 1024,
                           sim::TimeContext::InL2);
  EXPECT_LT(share(sumAfter.attr, sumAfter.attr.of(sim::StallCause::FpDep)),
            share(sumBefore.attr, sumBefore.attr.of(sim::StallCause::FpDep)));
  EXPECT_LT(sumAfter.cycles, sumBefore.cycles);
}

TEST(Attribution, PrefetchShrinksMemoryStallShareOutOfCache) {
  KernelSpec ddot{BlasOp::Dot, ir::Scal::F64};
  opt::TuningParams base;
  base.unroll = 4;
  opt::TuningParams pf = base;
  pf.prefetch["X"] = {true, ir::PrefKind::NTA, 256};
  pf.prefetch["Y"] = {true, ir::PrefKind::NTA, 256};

  auto before = timeWith(ddot, arch::p4e(), base, 8192,
                         sim::TimeContext::OutOfCache);
  auto after = timeWith(ddot, arch::p4e(), pf, 8192,
                        sim::TimeContext::OutOfCache);
  EXPECT_LT(share(after.attr, after.attr.memoryStalls()),
            share(before.attr, before.attr.memoryStalls()));
  EXPECT_LT(after.cycles, before.cycles);
}

TEST(Attribution, NonTemporalStoresRaiseMemoryStallShareOnRmwStream) {
  // axpy reads and writes Y; its demand loads cache the lines, so NT
  // stores to them pay the flush penalty on Opteron
  // (ntStoreCheapWhenCached=false) — blind WNT makes the memory share of
  // the cycles worse, which is exactly why it must be searched, not
  // defaulted on.
  KernelSpec axpy{BlasOp::Axpy, ir::Scal::F64};
  opt::TuningParams base;
  base.unroll = 4;
  opt::TuningParams wnt = base;
  wnt.nonTemporalWrites = true;

  auto before = timeWith(axpy, arch::opteron(), base, 8192,
                         sim::TimeContext::OutOfCache);
  auto after = timeWith(axpy, arch::opteron(), wnt, 8192,
                        sim::TimeContext::OutOfCache);
  EXPECT_GT(share(after.attr, after.attr.memoryStalls()),
            share(before.attr, before.attr.memoryStalls()));
}

// --- memory-counter isolation between timing contexts -----------------------

TEST(Attribution, MemStatsDoNotBleedAcrossContexts) {
  KernelSpec ddot{BlasOp::Dot, ir::Scal::F64};
  opt::TuningParams p;

  // An in-L2 run between two out-of-cache runs (and vice versa) must see
  // identical counters: each timing run owns a fresh MemSystem and the
  // warming protocol's traffic is discarded before the timed pass.
  auto inAlone = timeWith(ddot, arch::p4e(), p, 128, sim::TimeContext::InL2);
  auto ooc1 = timeWith(ddot, arch::p4e(), p, 128,
                       sim::TimeContext::OutOfCache);
  auto inAfterOoc = timeWith(ddot, arch::p4e(), p, 128,
                             sim::TimeContext::InL2);
  auto ooc2 = timeWith(ddot, arch::p4e(), p, 128,
                       sim::TimeContext::OutOfCache);

  EXPECT_EQ(inAlone.mem, inAfterOoc.mem);
  EXPECT_EQ(inAlone.attr, inAfterOoc.attr);
  EXPECT_EQ(ooc1.mem, ooc2.mem);

  // The warmed run's counters describe only the timed pass: a 128-element
  // working set lives in the caches, so nothing goes to memory — the
  // warming fetches and installs must not leak into these counters.
  EXPECT_EQ(inAlone.mem.loadMissMem, 0u);
  EXPECT_EQ(inAlone.mem.busBytes, 0u);
  EXPECT_GT(ooc1.mem.loadMissMem, 0u);
}

TEST(Attribution, Level2WarmUpStaysOutOfTheTimedStats) {
  // dgemv 64x512 in-L2 on P4E: A (256KB) fits the L2 but not the 16KB L1,
  // so warming it displaces thousands of L1 lines.  The timed pass can
  // displace a line from the L1 only by filling one there (a load or store
  // that misses it, a software prefetch; the hardware prefetcher fills the
  // L2), so more evictions than fills mean the warm-up leaked into the
  // stats.
  auto r = fko::compileKernel(kernels::gemvSource(ir::Scal::F64),
                              fko::CompileOptions{}, arch::p4e());
  ASSERT_TRUE(r.ok) << r.error;
  auto t = kernels::timeGemv(arch::p4e(), r.fn, 64, 512,
                             sim::TimeContext::InL2);
  const uint64_t l1Fills = t.mem.loadMissL1 +
                           (t.mem.stores - t.mem.storeHitL1) +
                           t.mem.prefIssued;
  EXPECT_GT(t.mem.evictL1, 0u);
  EXPECT_LE(t.mem.evictL1, l1Fills);
}

// --- repeatable-block convergence reporting ---------------------------------

TEST(CompileObservability, RepeatableCapHitIsReportedNotSilent) {
  KernelSpec ddot{BlasOp::Dot, ir::Scal::F64};
  fko::CompileOptions full;
  full.tuning.unroll = 8;
  full.tuning.accumExpand = 4;
  auto converged = fko::compileKernel(ddot.hilSource(), full, arch::p4e());
  ASSERT_TRUE(converged.ok) << converged.error;
  EXPECT_TRUE(converged.repeatableConverged);
  EXPECT_TRUE(converged.warnings.empty());
  ASSERT_GE(converged.repeatableIters, 1);

  // Cap the block at exactly the iterations it needed: the confirming
  // no-change sweep never runs, so the compile must say so out loud.
  fko::CompileOptions capped = full;
  capped.maxRepeatableIters = converged.repeatableIters;
  auto cut = fko::compileKernel(ddot.hilSource(), capped, arch::p4e());
  ASSERT_TRUE(cut.ok) << cut.error;
  EXPECT_FALSE(cut.repeatableConverged);
  ASSERT_FALSE(cut.warnings.empty());
  EXPECT_EQ(cut.warnings[0].severity, DiagSeverity::Warning);
  EXPECT_NE(cut.warnings[0].message.find("iteration cap"), std::string::npos)
      << cut.warnings[0].message;
}

TEST(CompileObservability, PassDeltasCoverTheWholePipeline) {
  KernelSpec ddot{BlasOp::Dot, ir::Scal::F64};
  fko::CompileOptions opts;
  opts.tuning.unroll = 4;
  auto r = fko::compileKernel(ddot.hilSource(), opts, arch::p4e());
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_FALSE(r.passes.empty());
  // The fundamental-transform stage leads, then only passes that fired.
  EXPECT_EQ(r.passes[0].name, "fundamental");
  for (const auto& p : r.passes) {
    EXPECT_TRUE(p.changed) << p.name;
    EXPECT_GT(p.instsBefore, 0u) << p.name;
  }
}

// --- schema v3: trace and cache carry bit-identical counters ----------------

std::vector<std::string> sortedLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  return lines;
}

TEST(SchemaV3, CacheAndTraceAreBitIdenticalAtAnyJobs) {
  KernelSpec spec{BlasOp::Dot, ir::Scal::F64};
  int coldEvaluations = -1;
  auto runAt = [&](int jobs, const char* cacheName) {
    search::OrchestratorConfig oc;
    oc.search = search::SearchConfig::smoke();
    oc.search.jobs = jobs;
    oc.cachePath = tmpFile(cacheName);
    std::remove(oc.cachePath.c_str());
    search::Orchestrator orch(arch::p4e(), oc);
    auto outcome = orch.tune({spec.name(), spec.hilSource(), &spec});
    EXPECT_TRUE(outcome.result.ok) << outcome.result.error;
    coldEvaluations = outcome.result.evaluations;
    return oc.cachePath;
  };
  std::string serial = runAt(1, "attr_cache_j1.jsonl");
  std::string parallel = runAt(8, "attr_cache_j8.jsonl");
  auto a = sortedLines(serial);
  auto b = sortedLines(parallel);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "cache records must not depend on --jobs";
  // The records really are v3: counters with attribution fields.
  bool sawCounters = false;
  for (const auto& line : a)
    if (line.find("\"counters\":{") != std::string::npos &&
        line.find("\"attr_fp_dep\":") != std::string::npos)
      sawCounters = true;
  EXPECT_TRUE(sawCounters);

  // Warm replay of the v3 cache: zero fresh evaluations, same winner.
  search::OrchestratorConfig oc;
  oc.search = search::SearchConfig::smoke();
  oc.cachePath = serial;
  search::Orchestrator warm(arch::p4e(), oc);
  auto replay = warm.tune({spec.name(), spec.hilSource(), &spec});
  ASSERT_TRUE(replay.result.ok) << replay.result.error;
  EXPECT_EQ(replay.evaluationsRun, 0);
  EXPECT_EQ(replay.result.evaluations, coldEvaluations);
}

TEST(SchemaV3, TraceCountersSatisfyTheIdentityPerCandidate) {
  KernelSpec spec{BlasOp::Asum, ir::Scal::F32};
  search::OrchestratorConfig oc;
  oc.search = search::SearchConfig::smoke();
  oc.tracePath = tmpFile("attr_trace_v3.jsonl");
  std::remove(oc.tracePath.c_str());
  search::Orchestrator orch(arch::p4e(), oc);
  auto outcome = orch.tune({spec.name(), spec.hilSource(), &spec});
  ASSERT_TRUE(outcome.result.ok) << outcome.result.error;

  std::ifstream in(oc.tracePath);
  ASSERT_TRUE(in.good());
  std::string line;
  int counted = 0;
  while (std::getline(in, line)) {
    std::map<std::string, JsonValue> obj;
    ASSERT_TRUE(parseJsonObject(line, &obj)) << line;
    auto str = [&](const char* k) {
      auto it = obj.find(k);
      return it == obj.end() ? std::string() : it->second.string;
    };
    if (str("event") != "candidate") continue;
    auto it = obj.find("counters");
    if (str("verdict") == "pass") {
      ASSERT_NE(it, obj.end()) << "timed candidate without counters: " << line;
      ASSERT_EQ(it->second.kind, JsonValue::Kind::Object);
      uint64_t attrTotal = 0;
      for (const auto& [key, value] : *it->second.object)
        if (key.rfind("attr_", 0) == 0) attrTotal += value.asUint();
      EXPECT_EQ(attrTotal, obj.at("cycles").asUint()) << line;
      ++counted;
    } else {
      EXPECT_EQ(it, obj.end()) << "failed candidate carries counters: " << line;
    }
  }
  EXPECT_GT(counted, 0);
}

TEST(SchemaV3, LegacyCacheLinesAreDamageAndNewOnesRoundTrip) {
  std::string path = tmpFile("attr_cache_compat.jsonl");
  std::remove(path.c_str());
  {
    // A v1 line (no status) and a v2 timed line (no counters), as earlier
    // releases wrote them, and a failure line, which never has counters.
    std::ofstream out(path);
    out << "{\"source\":\"deadbeef\",\"machine\":\"p4e\",\"context\":"
           "\"out-of-cache\",\"n\":4096,\"seed\":42,\"tester_n\":64,"
           "\"params\":\"v1\",\"cycles\":123}\n";
    out << "{\"source\":\"deadbeef\",\"machine\":\"p4e\",\"context\":"
           "\"out-of-cache\",\"n\":4096,\"seed\":42,\"tester_n\":64,"
           "\"params\":\"v2\",\"cycles\":123,\"status\":\"timed\"}\n";
    out << "{\"source\":\"deadbeef\",\"machine\":\"p4e\",\"context\":"
           "\"out-of-cache\",\"n\":4096,\"seed\":42,\"tester_n\":64,"
           "\"params\":\"fail\",\"cycles\":0,\"status\":\"tester_fail\"}\n";
  }

  search::EvalKey v1{"deadbeef", "p4e", "out-of-cache", 4096, 42, 64, "v1"};
  search::EvalKey v2{"deadbeef", "p4e", "out-of-cache", 4096, 42, 64, "v2"};
  search::EvalKey fail{"deadbeef", "p4e", "out-of-cache", 4096, 42, 64,
                       "fail"};

  search::EvalCounters counters;
  counters.attr.cycles[static_cast<size_t>(sim::StallCause::FpDep)] = 70;
  counters.attr.cycles[static_cast<size_t>(sim::StallCause::MemMain)] = 53;
  counters.mem.loads = 11;
  counters.mem.loadHitL1 = 9;
  counters.mem.prefUseful = 2;
  counters.irInsts = 31;
  counters.repeatableIters = 2;
  counters.repeatableConverged = false;
  counters.spillSlots = 1;

  {
    search::EvalCache cache;
    ASSERT_TRUE(cache.open(path));
    EXPECT_EQ(cache.damagedLines(), 2u);
    EXPECT_FALSE(cache.lookup(v1).has_value());
    EXPECT_FALSE(cache.lookup(v2).has_value());
    auto rf = cache.lookup(fail);
    ASSERT_TRUE(rf.has_value());
    EXPECT_EQ(rf->status, search::EvalOutcome::Status::TesterFail);
    EXPECT_FALSE(rf->counters.has_value());
    // The re-evaluated candidate is appended as a v3 line.
    cache.insert(v2, 123, search::EvalOutcome::Status::Timed, counters);
  }
  {
    // Reopen: the v3 record round-trips bit for bit and shadows the
    // legacy line for the same key, which is still damage.
    search::EvalCache cache;
    ASSERT_TRUE(cache.open(path));
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.damagedLines(), 2u);
    auto r2 = cache.lookup(v2);
    ASSERT_TRUE(r2.has_value());
    ASSERT_TRUE(r2->counters.has_value());
    EXPECT_EQ(*r2->counters, counters);
    EXPECT_FALSE(cache.lookup(v1).has_value());
  }
}

TEST(SchemaV3, CounterlessTimedLinesAreReEvaluatedSoWarmMatchesCold) {
  // The attribution strategy steers by the incumbent's counters, so a
  // timed record replayed without them would send a warm run down the
  // unguided neighbourhood.  Such records are damage instead: the warm
  // run evaluates them again and proposes exactly as the cold run did.
  KernelSpec spec{BlasOp::Dot, ir::Scal::F64};
  search::OrchestratorConfig oc;
  oc.search = search::SearchConfig::smoke();
  oc.strategy = search::StrategyKind::Attribution;
  oc.budget.maxEvaluations = 16;
  oc.cachePath = tmpFile("attr_cache_cold.jsonl");
  std::remove(oc.cachePath.c_str());
  search::KernelOutcome cold;
  {
    search::Orchestrator orch(arch::p4e(), oc);
    cold = orch.tune({spec.name(), spec.hilSource(), &spec});
    ASSERT_TRUE(cold.result.ok) << cold.result.error;
  }

  // The same records with every timed line's counters stripped: v2 lines.
  const std::string stripped = tmpFile("attr_cache_stripped.jsonl");
  size_t timedLines = 0;
  {
    std::ifstream in(oc.cachePath);
    std::ofstream out(stripped, std::ios::trunc);
    for (std::string line; std::getline(in, line);) {
      const size_t at = line.find(",\"counters\":");
      if (at != std::string::npos) {
        line = line.substr(0, at) + "}";
        ++timedLines;
      }
      out << line << "\n";
    }
  }
  ASSERT_GT(timedLines, 0u);

  oc.cachePath = stripped;
  search::Orchestrator orch(arch::p4e(), oc);
  EXPECT_EQ(orch.cache().damagedLines(), timedLines);
  const search::KernelOutcome warm =
      orch.tune({spec.name(), spec.hilSource(), &spec});
  ASSERT_TRUE(warm.result.ok) << warm.result.error;
  EXPECT_EQ(warm.evaluationsRun, static_cast<int>(timedLines));
  EXPECT_EQ(warm.result.best, cold.result.best);
  EXPECT_EQ(warm.result.bestCycles, cold.result.bestCycles);
  EXPECT_EQ(warm.result.ledger, cold.result.ledger);
  EXPECT_EQ(warm.result.frontier, cold.result.frontier);
  EXPECT_EQ(warm.result.proposals, cold.result.proposals);
  EXPECT_EQ(warm.result.evaluations, cold.result.evaluations);
}

}  // namespace
}  // namespace ifko
