// The ifko command-line driver: one function per verb, dispatched from the
// verb table in driver/options.cpp, which also holds every flag, the verbs'
// flag sets and the usage text (`ifko` with no arguments prints it).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "driver/options.h"
#include "fko/compiler.h"
#include "fko/harness.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "search/orchestrator.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "support/json.h"
#include "support/str.h"
#include "support/table.h"
#include "wisdom/harvest.h"
#include "wisdom/wisdom.h"

namespace {

using namespace ifko;
using driver::Options;

std::optional<std::string> readFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

search::SearchConfig searchConfig(const Options& o) {
  search::SearchConfig cfg = o.fast ? search::SearchConfig::smoke()
                                    : search::SearchConfig{};
  cfg.n = o.n;
  cfg.context = o.context;
  cfg.jobs = static_cast<int>(o.jobs);
  cfg.searchExtensions = o.extensions;
  cfg.evalTimeoutMs = o.evalTimeoutMs;
  return cfg;
}

/// The shared tune/tune-all configuration: search scale, cache/trace paths,
/// strategy, and budget.  A stochastic strategy with no explicit budget
/// would only stop at its internal round limits, so it defaults to 128
/// observed candidates — about one full line search on the full grids.
search::OrchestratorConfig orchestratorConfig(const Options& o) {
  search::OrchestratorConfig oc;
  oc.search = searchConfig(o);
  oc.cachePath = o.cachePath;
  oc.cacheDir = o.cacheDirPath;
  oc.cacheShard = o.cacheShard;
  oc.tracePath = o.tracePath;
  oc.strategy = o.strategy;
  oc.budget.maxEvaluations = static_cast<int>(o.budget);
  oc.budget.maxCycles = static_cast<uint64_t>(o.budgetCycles);
  oc.budget.seed = static_cast<uint64_t>(o.searchSeed);
  if (oc.strategy != search::StrategyKind::Line && oc.budget.unlimited())
    oc.budget.maxEvaluations = 128;
  oc.quarantineAfter = static_cast<int>(o.quarantine);
  oc.faultPlan = o.faultPlan;
  return oc;
}

/// The user-facing name of whatever eval cache the options select (the
/// shard directory wins over a single file, mirroring OrchestratorConfig).
std::string cacheName(const Options& o) {
  return o.cacheDirPath.empty() ? o.cachePath : o.cacheDirPath;
}

/// "2 timeouts, 1 crash" — only the nonzero categories.
std::string faultSummary(const search::FailureCounts& f) {
  std::string s;
  auto item = [&](int n, const char* one, const char* many) {
    if (n == 0) return;
    if (!s.empty()) s += ", ";
    s += std::to_string(n) + " " + (n == 1 ? one : many);
  };
  item(f.timeouts, "timeout", "timeouts");
  item(f.crashes, "crash", "crashes");
  item(f.testerFails, "tester fail", "tester fails");
  item(f.compileFails, "compile fail", "compile fails");
  return s;
}

// --- wisdom plumbing for tune/tune-all --------------------------------------

void loadWisdomWarn(wisdom::WisdomStore& store, const std::string& path,
                    const char* who) {
  std::string err;
  if (!store.load(path, &err))
    std::fprintf(stderr, "%s: wisdom: %s\n", who, err.c_str());
  if (store.damagedLines() > 0)
    std::fprintf(stderr,
                 "%s: warning: skipped %zu damaged wisdom line(s) in '%s'\n",
                 who, store.damagedLines(), path.c_str());
  if (store.schemaSkippedLines() > 0)
    std::fprintf(stderr,
                 "%s: warning: skipped %zu wisdom line(s) from another "
                 "wisdom_schema in '%s'\n",
                 who, store.schemaSkippedLines(), path.c_str());
}

int cmdAnalyze(const std::string& src, const Options& o) {
  auto rep = fko::analyzeKernel(src, o.machine);
  if (!rep.ok) {
    std::fprintf(stderr, "analysis failed: %s\n", rep.error.c_str());
    return 1;
  }
  std::printf("machine: %s (%d cache levels, %dB lines)\n",
              o.machine.name.c_str(), rep.cacheLevels, rep.lineBytes[0]);
  std::printf("tuned loop: found, max unroll %d\n", rep.maxUnroll);
  std::printf("SIMD vectorizable: %s%s%s (%d lanes of %s)\n",
              rep.vectorizable ? "yes" : "no",
              rep.vectorizable ? "" : " — ",
              rep.vectorizable ? "" : rep.whyNotVectorizable.c_str(),
              rep.vecLanes, std::string(scalName(rep.elemType)).c_str());
  for (const auto& a : rep.arrays)
    std::printf("array %-8s loaded=%d stored=%d prefetchable=%d\n",
                a.name.c_str(), a.loaded, a.stored, a.prefetchable);
  std::printf("accumulator-expansion candidates: %d\n", rep.numAccumulators);
  return 0;
}

int cmdCompile(const std::string& src, const Options& o, bool alsoRun) {
  auto r = fko::compileKernel(src, o.compile, o.machine);
  if (!r.ok) {
    std::fprintf(stderr, "compile failed: %s\n", r.error.c_str());
    return 1;
  }
  std::printf("compiled: %zu instructions, %d spill slots, %d repeatable "
              "iterations\n",
              r.fn.instCount(), r.spillSlots, r.repeatableIters);
  for (const auto& w : r.warnings)
    std::fprintf(stderr, "%s\n", w.str().c_str());
  if (o.dumpIr) std::fputs(ir::print(r.fn).c_str(), stdout);

  auto diff = fko::testAgainstUnoptimized(src, r.fn, std::min<int64_t>(o.n, 512));
  std::printf("differential check vs unoptimized lowering: %s\n",
              diff.ok ? "PASS" : diff.message.c_str());
  if (!diff.ok) return 1;

  if (alsoRun) {
    int64_t strideElems = 1;
    auto rep = fko::analyzeKernel(src, o.machine);
    if (rep.ok)
      for (const auto& a : rep.arrays)
        strideElems = std::max(strideElems, a.strideElems);
    auto t = fko::timeCompiled(o.machine, r.fn, o.n, o.context, 42, strideElems);
    std::printf("%s, N=%lld, %s: %llu cycles (%.3f cycles/element, "
                "%llu dynamic instructions)\n",
                o.machine.name.c_str(), static_cast<long long>(o.n),
                std::string(sim::contextName(o.context)).c_str(),
                static_cast<unsigned long long>(t.cycles),
                static_cast<double>(t.cycles) / static_cast<double>(o.n),
                static_cast<unsigned long long>(t.dynInsts));
  }
  return 0;
}

std::string pathStem(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
  size_t dot = base.find_last_of('.');
  return dot == std::string::npos ? base : base.substr(0, dot);
}

int cmdTune(const std::string& path, const std::string& src, const Options& o) {
  search::OrchestratorConfig oc = orchestratorConfig(o);
  std::string err;
  search::Orchestrator orch(o.machine, oc, &err);
  if (!err.empty()) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 1;
  }
  if (orch.cache().damagedLines() > 0)
    std::fprintf(stderr,
                 "tune: warning: skipped %zu damaged line(s) in cache '%s'\n",
                 orch.cache().damagedLines(), cacheName(o).c_str());

  search::KernelJob job{pathStem(path), src, nullptr};
  wisdom::WisdomStore wis;
  wisdom::WisdomKey wkey;
  if (!o.wisdomPath.empty()) {
    loadWisdomWarn(wis, o.wisdomPath, "tune");
    wkey = wisdom::keyFor(src, o.machine, o.context, o.n);
    // Deferred until the DEFAULTS point is timed, so the lookup can rank
    // fallback candidates by similarity to this kernel's own attribution
    // vector (the probe) instead of by raw N-class distance.
    job.warmStartProvider = [&wis, wkey](const search::EvalOutcome& def)
        -> std::optional<opt::TuningParams> {
      const auto warm = wisdom::findWarmStart(wis, wkey, def);
      if (!warm.has_value()) return std::nullopt;
      std::printf("wisdom: warm start (%s): %s\n",
                  std::string(wisdom::matchKindName(warm->match.kind)).c_str(),
                  warm->match.record->params.c_str());
      return warm->params;
    };
  }

  auto outcome = orch.tune(job);
  const search::TuneResult& r = outcome.result;
  if (!r.ok) {
    std::fprintf(stderr, "tuning failed: %s\n", r.error.c_str());
    if (outcome.faults.total() > 0)
      std::fprintf(stderr, "evaluation failures: %s\n",
                   faultSummary(outcome.faults).c_str());
    return 1;
  }
  std::printf("FKO defaults: %llu cycles\n",
              static_cast<unsigned long long>(r.defaultCycles));
  uint64_t prev = r.defaultCycles;
  for (const auto& d : r.ledger) {
    std::printf("  %-7s -> %10llu cycles (%+.1f%%)\n", d.name.c_str(),
                static_cast<unsigned long long>(d.cyclesAfter),
                100.0 * (static_cast<double>(prev) /
                             static_cast<double>(d.cyclesAfter) -
                         1.0));
    prev = d.cyclesAfter;
  }
  std::printf("ifko: %llu cycles (%.2fx over defaults, %d evaluations)\n",
              static_cast<unsigned long long>(r.bestCycles),
              r.speedupOverDefaults(), r.evaluations);
  std::printf("best parameters: %s\n",
              opt::formatTuningSpec(r.best).c_str());
  if (oc.strategy != search::StrategyKind::Line) {
    std::string budget = oc.budget.unlimited() ? "unlimited"
                         : oc.budget.maxEvaluations > 0
                             ? std::to_string(oc.budget.maxEvaluations)
                             : std::to_string(oc.budget.maxCycles) + " cycles";
    std::printf("strategy %s: %d proposals (budget %s, seed %llu)\n",
                std::string(search::strategyName(oc.strategy)).c_str(),
                r.proposals, budget.c_str(),
                static_cast<unsigned long long>(oc.budget.seed));
  }
  if (outcome.faults.total() > 0)
    std::printf("evaluation failures survived: %s\n",
                faultSummary(outcome.faults).c_str());
  if (!cacheName(o).empty())
    std::printf("cache: %llu hits / %llu misses (%zu entries in %s)\n",
                static_cast<unsigned long long>(outcome.cacheHits),
                static_cast<unsigned long long>(outcome.cacheMisses),
                orch.cache().size(), cacheName(o).c_str());

  if (!o.wisdomPath.empty()) {
    const bool adopted = wis.record(wisdom::harvestRecord(
        wkey, job.name,
        "tune/" + std::string(search::strategyName(oc.strategy)), r));
    std::string werr;
    if (!wis.save(o.wisdomPath, &werr)) {
      std::fprintf(stderr, "tune: wisdom save failed: %s\n", werr.c_str());
      return 1;
    }
    std::printf("wisdom: %s (%zu records in %s)\n",
                adopted ? "best recorded" : "incumbent kept (not beaten)",
                wis.size(), o.wisdomPath.c_str());
  }
  return 0;
}

/// `ifko explain`: tune (warm-cache cheap), then attribute the cycles of the
/// default and winning parameter sets cause by cause, so the speedup has an
/// explanation and not just a number.
int cmdExplain(const std::string& path, const std::string& src,
               const Options& o) {
  search::OrchestratorConfig oc = orchestratorConfig(o);
  std::string err;
  search::Orchestrator orch(o.machine, oc, &err);
  if (!err.empty()) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 1;
  }
  if (orch.cache().damagedLines() > 0)
    std::fprintf(stderr,
                 "explain: warning: skipped %zu damaged line(s) in cache "
                 "'%s'\n",
                 orch.cache().damagedLines(), cacheName(o).c_str());
  auto outcome = orch.tune({pathStem(path), src, nullptr});
  const search::TuneResult& r = outcome.result;
  if (!r.ok) {
    std::fprintf(stderr, "tuning failed: %s\n", r.error.c_str());
    return 1;
  }

  // The search kept both endpoints' counters (evaluated or replayed from
  // the cache), so the attribution below needs no second evaluation.
  if (!r.defaultCounters.has_value() || !r.bestCounters.has_value()) {
    std::fprintf(stderr, "explain: the search kept no counters for an "
                         "endpoint\n");
    return 1;
  }
  const search::EvalCounters& dc = *r.defaultCounters;
  const search::EvalCounters& bc = *r.bestCounters;

  std::printf("%s on %s, N=%lld, %s\n", pathStem(path).c_str(),
              o.machine.name.c_str(), static_cast<long long>(o.n),
              std::string(sim::contextName(o.context)).c_str());
  std::printf("defaults: %-40s %10llu cycles\n",
              opt::formatTuningSpec(r.defaults).c_str(),
              static_cast<unsigned long long>(r.defaultCycles));
  std::printf("winner:   %-40s %10llu cycles (%.2fx)\n",
              opt::formatTuningSpec(r.best).c_str(),
              static_cast<unsigned long long>(r.bestCycles),
              r.speedupOverDefaults());

  // Per-cause attribution, defaults vs winner.  Shares are of each run's own
  // total, which equals its cycle count exactly (the accounting identity).
  uint64_t dTot = dc.attr.total();
  uint64_t bTot = bc.attr.total();
  auto share = [](uint64_t c, uint64_t total) {
    return total == 0 ? 0.0
                      : 100.0 * static_cast<double>(c) /
                            static_cast<double>(total);
  };
  std::printf("\ncycle attribution (why, not just how much):\n");
  TextTable t;
  t.setHeader({"cause", "FKO cyc", "FKO %", "ifko cyc", "ifko %", "delta"});
  for (size_t i = 0; i < sim::kNumStallCauses; ++i) {
    uint64_t d = dc.attr.cycles[i];
    uint64_t b = bc.attr.cycles[i];
    if (d == 0 && b == 0) continue;
    int64_t delta = static_cast<int64_t>(b) - static_cast<int64_t>(d);
    t.addRow({std::string(sim::stallCauseName(static_cast<sim::StallCause>(i))),
              std::to_string(d), fmtFixed(share(d, dTot), 1),
              std::to_string(b), fmtFixed(share(b, bTot), 1),
              (delta > 0 ? "+" : "") + std::to_string(delta)});
  }
  t.addRow({"total", std::to_string(dTot), "100.0", std::to_string(bTot),
            "100.0",
            (bTot > dTot ? "+" : "") +
                std::to_string(static_cast<int64_t>(bTot) -
                               static_cast<int64_t>(dTot))});
  std::fputs(t.str().c_str(), stdout);
  std::printf("memory stalls: %llu cycles (%.1f%%) -> %llu cycles (%.1f%%)\n",
              static_cast<unsigned long long>(dc.attr.memoryStalls()),
              share(dc.attr.memoryStalls(), dTot),
              static_cast<unsigned long long>(bc.attr.memoryStalls()),
              share(bc.attr.memoryStalls(), bTot));

  auto memLine = [](const char* who, const search::EvalCounters& c) {
    std::printf("  %-8s loads %llu (L1 %llu, L2 %llu, mem %llu)  stores %llu "
                "(RFO %llu, NT %llu)  pref %llu/%llu useful  evict %llu+%llu  "
                "bus %lluB\n",
                who, static_cast<unsigned long long>(c.mem.loads),
                static_cast<unsigned long long>(c.mem.loadHitL1),
                static_cast<unsigned long long>(c.mem.loadHitL2),
                static_cast<unsigned long long>(c.mem.loadMissMem),
                static_cast<unsigned long long>(c.mem.stores),
                static_cast<unsigned long long>(c.mem.storeRFOs),
                static_cast<unsigned long long>(c.mem.ntStores),
                static_cast<unsigned long long>(c.mem.prefUseful),
                static_cast<unsigned long long>(c.mem.prefIssued),
                static_cast<unsigned long long>(c.mem.evictL1),
                static_cast<unsigned long long>(c.mem.evictL2),
                static_cast<unsigned long long>(c.mem.busBytes));
  };
  std::printf("\nmemory system:\n");
  memLine("defaults", dc);
  memLine("winner", bc);

  // Compile observability for the winning parameters: the per-pass deltas of
  // the fundamental + repeatable pipeline, from one compile of the winner.
  fko::CompileOptions copts;
  copts.tuning = r.best;
  const fko::CompileResult compiled =
      fko::compileKernel(src, copts, o.machine);
  if (compiled.ok) {
    std::printf("\ncompile (winner): %zu IR instructions, %d spill slots, "
                "%d repeatable iteration(s)%s\n",
                compiled.fn.instCount(), compiled.spillSlots,
                compiled.repeatableIters,
                compiled.repeatableConverged ? "" : " [did not converge]");
    for (const auto& p : compiled.passes)
      std::printf("  %-12s %4zu -> %4zu insts  (%d iteration%s)\n",
                  p.name.c_str(), p.instsBefore, p.instsAfter, p.iterations,
                  p.iterations == 1 ? "" : "s");
    for (const auto& w : compiled.warnings)
      std::fprintf(stderr, "%s\n", w.str().c_str());
  }
  return 0;
}

int cmdTuneAll(const std::string& dir, const Options& o) {
  std::string err;
  auto jobs = search::loadKernelDir(dir, &err);
  if (jobs.empty()) {
    std::fprintf(stderr, "tune-all: %s\n", err.c_str());
    return 1;
  }

  // --workers=N --worker-id=K: deterministic partition of the sorted job
  // list.  Each worker keeps jobs[i] with i % N == K, so an uncoordinated
  // fleet covers the directory exactly once — and because every kernel's
  // search is independent, the union of the workers' results is
  // bit-identical to one process tuning the whole list.
  if (o.workers > 0 || o.workerIdSet) {
    if (o.workers < 1 || o.workerId >= o.workers) {
      std::fprintf(stderr,
                   "tune-all: need --workers=N with --worker-id=K in "
                   "[0, N): got workers=%lld worker-id=%lld\n",
                   static_cast<long long>(o.workers),
                   static_cast<long long>(o.workerId));
      return 2;
    }
    const size_t total = jobs.size();
    jobs = search::workerSlice(std::move(jobs), static_cast<int>(o.workers),
                               static_cast<int>(o.workerId));
    std::fprintf(stderr, "tune-all: worker %lld of %lld: %zu of %zu kernels\n",
                 static_cast<long long>(o.workerId),
                 static_cast<long long>(o.workers), jobs.size(), total);
  }

  search::OrchestratorConfig oc = orchestratorConfig(o);

  search::Orchestrator orch(o.machine, oc, &err);
  if (!err.empty()) {
    std::fprintf(stderr, "tune-all: %s\n", err.c_str());
    return 1;
  }
  if (orch.cache().damagedLines() > 0)
    std::fprintf(stderr,
                 "tune-all: warning: skipped %zu damaged line(s) in cache "
                 "'%s'\n",
                 orch.cache().damagedLines(), cacheName(o).c_str());

  wisdom::WisdomStore wis;
  std::map<std::string, wisdom::WisdomKey> wkeyByName;
  if (!o.wisdomPath.empty()) {
    loadWisdomWarn(wis, o.wisdomPath, "tune-all");
    size_t warmStarts = 0;
    for (auto& job : jobs) {
      wisdom::WisdomKey key =
          wisdom::keyFor(job.hilSource, o.machine, o.context, o.n);
      if (wis.find(key).hit()) ++warmStarts;
      // Deferred lookup: the kernel's DEFAULTS attribution becomes the
      // similarity probe, and later kernels also see records written back
      // by earlier ones in this same run.
      job.warmStartProvider = [&wis, key](const search::EvalOutcome& def) {
        const auto warm = wisdom::findWarmStart(wis, key, def);
        return warm.has_value() ? std::optional(warm->params) : std::nullopt;
      };
      wkeyByName.emplace(job.name, std::move(key));
    }
    std::fprintf(stderr, "wisdom: warm-starting %zu of %zu kernels from %s\n",
                 warmStarts, jobs.size(), o.wisdomPath.c_str());
  }

  // Write wisdom back after every kernel, not once at the end: save() is
  // atomic (pid-unique temp + rename), so a kill -9 at any point loses at
  // most the in-flight kernel's record — which a rerun re-harvests.
  size_t adopted = 0;
  auto recordWisdom = [&](const search::KernelOutcome& k) {
    if (o.wisdomPath.empty() || !k.result.ok) return;
    if (wis.record(wisdom::harvestRecord(
            wkeyByName.at(k.name), k.name,
            "tune-all/" + std::string(search::strategyName(oc.strategy)),
            k.result)))
      ++adopted;
    std::string werr;
    if (!wis.save(o.wisdomPath, &werr))
      std::fprintf(stderr, "tune-all: wisdom save failed: %s\n", werr.c_str());
  };

  std::fprintf(stderr, "tuning %zu kernels on %s (jobs=%lld)...\n",
               jobs.size(), o.machine.name.c_str(),
               static_cast<long long>(o.jobs));
  auto batch = orch.tuneAll(jobs, recordWisdom);

  // Compact per-kernel fault cell: "2t 1c" = 2 timeouts, 1 crash; "-" = clean.
  auto faultCell = [](const search::FailureCounts& f) {
    std::string s;
    auto item = [&](int n, const char* tag) {
      if (n == 0) return;
      if (!s.empty()) s += " ";
      s += std::to_string(n) + tag;
    };
    item(f.timeouts, "t");
    item(f.crashes, "c");
    item(f.testerFails, "x");
    item(f.compileFails, "e");
    return s.empty() ? "-" : s;
  };

  TextTable t;
  t.setHeader({"kernel", "SV:WNT", "PF X", "PF Y", "UR:AE", "FKO cyc",
               "ifko cyc", "speedup", "evals", "faults", "hit%", "sec"});
  for (const auto& k : batch.kernels) {
    const search::TuneResult& r = k.result;
    if (!r.ok) {
      t.addRow({k.name + (k.quarantined ? " (quarantined)" : ""), "-", "-",
                "-", "-", "-", "-", "-", std::to_string(r.evaluations),
                faultCell(k.faults), "-", fmtFixed(k.seconds, 2)});
      continue;
    }
    auto row = search::paramsRow(r.best, r.analysis);
    uint64_t lookups = k.cacheHits + k.cacheMisses;
    double hitPct = lookups == 0 ? 0.0
                                 : 100.0 * static_cast<double>(k.cacheHits) /
                                       static_cast<double>(lookups);
    t.addRow({k.name, row[0], row[1], row[2], row[3],
              std::to_string(r.defaultCycles), std::to_string(r.bestCycles),
              fmtFixed(r.speedupOverDefaults(), 2) + "x",
              std::to_string(r.evaluations), faultCell(k.faults),
              fmtFixed(hitPct, 1), fmtFixed(k.seconds, 2)});
  }
  std::fputs(t.str().c_str(), stdout);

  std::printf("\n%zu kernels (%d failed, %d quarantined) in %.2f s wall: "
              "%d evaluations, cache %.1f%% hits (%llu/%llu)",
              batch.kernels.size(), batch.failures(), batch.quarantined(),
              batch.wallSeconds, batch.evaluations, 100.0 * batch.hitRate(),
              static_cast<unsigned long long>(batch.cacheHits),
              static_cast<unsigned long long>(batch.cacheHits +
                                              batch.cacheMisses));
  if (!cacheName(o).empty())
    std::printf(", %zu cached entries in %s", orch.cache().size(),
                cacheName(o).c_str());
  std::printf("\n");
  if (batch.faults.total() > 0)
    std::printf("evaluation failures survived: %s\n",
                faultSummary(batch.faults).c_str());
  for (const auto& k : batch.kernels)
    if (!k.result.ok)
      std::fprintf(stderr, "FAILED %s: %s\n", k.name.c_str(),
                   k.result.error.c_str());

  if (!o.wisdomPath.empty()) {
    // Every record is already on disk (recordWisdom saves per kernel); this
    // final save only matters when the batch adopted nothing, so the file
    // still exists and reflects what was loaded.
    std::string werr;
    if (!wis.save(o.wisdomPath, &werr)) {
      std::fprintf(stderr, "tune-all: wisdom save failed: %s\n", werr.c_str());
      return 1;
    }
    std::printf("wisdom: %zu result(s) adopted (%zu records in %s)\n",
                adopted, wis.size(), o.wisdomPath.c_str());
  }
  return batch.failures() == 0 ? 0 : 1;
}

int cmdSim(const std::string& src, const Options& o) {
  std::string error;
  auto fn = ir::parse(src, &error);
  if (!fn) {
    std::fprintf(stderr, "IR parse failed: %s\n", error.c_str());
    return 1;
  }
  auto problems = ir::verify(*fn);
  if (!problems.empty()) {
    std::fprintf(stderr, "IR verification failed: %s\n", problems[0].c_str());
    return 1;
  }
  auto t = fko::timeCompiled(o.machine, *fn, o.n, o.context);
  std::printf("%s, N=%lld, %s: %llu cycles (%.3f cycles/element, "
              "%llu dynamic instructions)\n",
              o.machine.name.c_str(), static_cast<long long>(o.n),
              std::string(sim::contextName(o.context)).c_str(),
              static_cast<unsigned long long>(t.cycles),
              static_cast<double>(t.cycles) / static_cast<double>(o.n),
              static_cast<unsigned long long>(t.dynInsts));
  return 0;
}

int cmdServe(const Options& o) {
  if (o.socketPath.empty() && o.tcpPort < 0) {
    std::fprintf(stderr,
                 "serve: need --socket=PATH or --port=N (0 = ephemeral)\n");
    return 2;
  }
  serve::ServeConfig cfg;
  cfg.orchestrator = orchestratorConfig(o);
  cfg.defaultArch = o.machine;
  cfg.wisdomPath = o.wisdomPath;
  cfg.kernelsDir = o.kernelsDir;
  cfg.recvTimeoutMs = static_cast<int>(o.recvTimeoutMs);
  std::string warn;
  serve::Daemon daemon(cfg, &warn);
  if (!warn.empty()) std::fputs(warn.c_str(), stderr);  // one warning per line

  std::string err;
  const bool listening = o.socketPath.empty()
                             ? daemon.listenTcp(static_cast<int>(o.tcpPort), &err)
                             : daemon.listenUnix(o.socketPath, &err);
  if (!listening) {
    std::fprintf(stderr, "serve: %s\n", err.c_str());
    return 1;
  }
  if (o.socketPath.empty()) {
    std::fprintf(stderr,
                 "ifko serve: listening on 127.0.0.1:%d (%zu kernels, %zu "
                 "wisdom records)\n",
                 daemon.boundPort(), daemon.kernelNames().size(),
                 daemon.store().size());
    // Machine-readable line for scripts that asked for an ephemeral port.
    std::printf("PORT %d\n", daemon.boundPort());
    std::fflush(stdout);
  } else {
    std::fprintf(stderr,
                 "ifko serve: listening on %s (%zu kernels, %zu wisdom "
                 "records)\n",
                 o.socketPath.c_str(), daemon.kernelNames().size(),
                 daemon.store().size());
  }

  const int rc = daemon.run(&err);
  if (rc != 0) {
    std::fprintf(stderr, "serve: %s\n", err.c_str());
    return rc;
  }
  const serve::ServeStats& s = daemon.stats();
  std::fprintf(stderr,
               "ifko serve: shutdown after %llu requests (%llu wisdom hits, "
               "%llu tuned, %llu evaluations, %llu errors)\n",
               static_cast<unsigned long long>(s.requests),
               static_cast<unsigned long long>(s.wisdomExact + s.wisdomNear),
               static_cast<unsigned long long>(s.tuned),
               static_cast<unsigned long long>(s.evaluations),
               static_cast<unsigned long long>(s.errors));
  return 0;
}

int cmdQuery(const std::string& kernel, const Options& o) {
  if (o.socketPath.empty() && o.tcpPort < 0) {
    std::fprintf(stderr, "query: need --socket=PATH or --port=N\n");
    return 2;
  }
  serve::Request req;
  req.verb = o.queryVerb;
  const bool kernelVerb = req.verb == serve::Request::Verb::Query ||
                          req.verb == serve::Request::Verb::Tune ||
                          req.verb == serve::Request::Verb::Explain;
  if (kernelVerb) {
    if (kernel.empty()) {
      std::fprintf(stderr,
                   "query: need a kernel name (or --stats, --export, "
                   "--shutdown)\n");
      return 2;
    }
    req.target = kernel;
    req.arch = o.archFlag;
    req.context = o.contextFlag;
    if (o.nSet) req.n = o.n;
  } else if (req.verb == serve::Request::Verb::Export) {
    req.target = o.exportPath;
  }

  serve::Endpoint ep;
  ep.unixPath = o.socketPath;
  ep.tcpPort = static_cast<int>(std::max<int64_t>(o.tcpPort, 0));
  std::string err;
  const std::optional<std::string> resp = serve::requestOnce(ep, req, &err);
  if (!resp.has_value()) {
    std::fprintf(stderr, "query: %s\n", err.c_str());
    return 1;
  }
  std::printf("%s\n", resp->c_str());

  std::map<std::string, JsonValue> obj;
  if (!parseJsonObject(*resp, &obj)) {
    std::fprintf(stderr, "query: daemon sent a malformed response\n");
    return 1;
  }
  const auto it = obj.find("ok");
  return it != obj.end() && it->second.kind == JsonValue::Kind::Bool &&
                 it->second.boolean
             ? 0
             : 1;
}

// --- fleet verbs: cache-merge, wisdom-merge ---------------------------------

/// `ifko cache-merge <out> --from=FILE_OR_DIR...`: offline set union of
/// eval-cache shards.  A --from naming a directory expands to every
/// cache.*.jsonl shard inside it; records are pure functions of their keys,
/// so dedup keeps the first occurrence and the output is byte-identical
/// regardless of input order.
int cmdCacheMerge(const std::string& out, const Options& o) {
  if (o.fromPaths.empty()) {
    std::fprintf(stderr,
                 "cache-merge: need at least one --from=FILE_OR_DIR\n");
    return 2;
  }
  std::vector<std::string> inputs;
  for (const std::string& from : o.fromPaths) {
    std::error_code ec;
    if (std::filesystem::is_directory(from, ec)) {
      std::string derr;
      std::vector<std::string> shards =
          search::EvalCache::shardFiles(from, &derr);
      if (!derr.empty()) {
        std::fprintf(stderr, "cache-merge: %s\n", derr.c_str());
        return 1;
      }
      if (shards.empty())
        std::fprintf(stderr,
                     "cache-merge: warning: no cache.*.jsonl shards in %s\n",
                     from.c_str());
      inputs.insert(inputs.end(), shards.begin(), shards.end());
    } else {
      inputs.push_back(from);
    }
  }
  std::string err;
  search::CacheMergeStats stats;
  if (!search::EvalCache::mergeFiles(inputs, out, &err, &stats)) {
    std::fprintf(stderr, "cache-merge: %s\n", err.c_str());
    return 1;
  }
  std::printf("merged %zu files: %zu unique records (%zu duplicates "
              "dropped, %zu damaged skipped) -> %s\n",
              stats.files, stats.unique, stats.duplicates, stats.damaged,
              out.c_str());
  return 0;
}

/// `ifko wisdom-merge <out> --from=FILE...`: keep-best union of wisdom
/// files.  Lower best_cycles wins and ties keep the incumbent, so the merge
/// is order-independent; the save is sorted, so merging the per-worker
/// stores of a partitioned tune-all reproduces the single-process file
/// byte for byte.
int cmdWisdomMerge(const std::string& out, const Options& o) {
  if (o.fromPaths.empty()) {
    std::fprintf(stderr, "wisdom-merge: need at least one --from=FILE\n");
    return 2;
  }
  wisdom::WisdomStore merged;
  for (const std::string& from : o.fromPaths)
    loadWisdomWarn(merged, from, "wisdom-merge");
  std::string err;
  if (!merged.save(out, &err)) {
    std::fprintf(stderr, "wisdom-merge: %s\n", err.c_str());
    return 1;
  }
  std::printf("merged %zu files: %zu records -> %s\n", o.fromPaths.size(),
              merged.size(), out.c_str());
  return 0;
}

int dispatch(const driver::VerbSpec& verb, const std::string& arg,
             const std::string& src, const Options& o) {
  using driver::Command;
  switch (verb.command) {
    case Command::Analyze: return cmdAnalyze(src, o);
    case Command::Compile: return cmdCompile(src, o, /*alsoRun=*/false);
    case Command::Run: return cmdCompile(src, o, /*alsoRun=*/true);
    case Command::Tune: return cmdTune(arg, src, o);
    case Command::TuneAll: return cmdTuneAll(arg, o);
    case Command::Explain: return cmdExplain(arg, src, o);
    case Command::Sim: return cmdSim(src, o);
    case Command::Serve: return cmdServe(o);
    case Command::Query: return cmdQuery(arg, o);
    case Command::CacheMerge: return cmdCacheMerge(arg, o);
    case Command::WisdomMerge: return cmdWisdomMerge(arg, o);
  }
  return 2;
}

int usage() {
  std::fputs(driver::usageText().c_str(), stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const driver::VerbSpec* verb = driver::findVerb(argv[1]);
  if (verb == nullptr) return usage();

  const bool hasArg = argc > 2 && argv[2][0] != '-';
  if (hasArg && verb->argHelp[0] == '\0') {
    std::fprintf(stderr, "%s takes no argument '%s'\n", verb->name, argv[2]);
    return 2;
  }
  if (verb->needsArg && !hasArg) return usage();
  Options o;
  std::string err;
  if (!driver::parseOptions(*verb, {argv + (hasArg ? 3 : 2), argv + argc}, &o,
                            &err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }

  const std::string arg = hasArg ? argv[2] : "";
  std::string src;
  if (verb->readsFile) {
    auto contents = readFile(arg);
    if (!contents) {
      std::fprintf(stderr, "cannot read '%s'\n", arg.c_str());
      return 1;
    }
    src = std::move(*contents);
  }
  return dispatch(*verb, arg, src, o);
}
