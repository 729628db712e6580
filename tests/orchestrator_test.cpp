// The batch-tuning orchestrator: parallel evaluation must reproduce the
// one-worker search bit for bit, the persistent cache must round-trip, and
// the trace must be well-formed JSONL.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "arch/machine.h"
#include "search/orchestrator.h"
#include "support/hash.h"
#include "support/json.h"

namespace ifko::search {
namespace {

using kernels::BlasOp;
using kernels::KernelSpec;

SearchConfig smokeConfig(int jobs = 1) {
  SearchConfig c = SearchConfig::smoke();
  c.jobs = jobs;
  return c;
}

KernelJob jobFor(const KernelSpec& spec) {
  return {spec.name(), spec.hilSource(), &spec};
}

std::string tmpFile(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

TEST(SearchConfigApi, SmokeMatchesLegacyFastSettings) {
  SearchConfig c = SearchConfig::smoke();
  EXPECT_TRUE(c.reducedGrids());
  EXPECT_EQ(c.n, 4096);
  EXPECT_EQ(c.testerN, 64);
  EXPECT_EQ(c.jobs, 1);
  EXPECT_FALSE(SearchConfig{}.reducedGrids());
}

TEST(Orchestrator, ParallelMatchesSerialExactly) {
  KernelSpec spec{BlasOp::Dot, ir::Scal::F64};
  OrchestratorConfig serial;
  serial.search = smokeConfig(1);
  OrchestratorConfig parallel;
  parallel.search = smokeConfig(8);

  Orchestrator a(arch::p4e(), serial);
  Orchestrator b(arch::p4e(), parallel);
  auto ra = a.tune(jobFor(spec));
  auto rb = b.tune(jobFor(spec));
  ASSERT_TRUE(ra.result.ok) << ra.result.error;
  ASSERT_TRUE(rb.result.ok) << rb.result.error;
  EXPECT_EQ(ra.result.best, rb.result.best);
  EXPECT_EQ(ra.result.bestCycles, rb.result.bestCycles);
  EXPECT_EQ(ra.result.defaultCycles, rb.result.defaultCycles);
  EXPECT_EQ(ra.result.evaluations, rb.result.evaluations);
  EXPECT_EQ(ra.result.ledger, rb.result.ledger);
}

TEST(Orchestrator, CacheRoundTripSecondRunAllHits) {
  std::string cachePath = tmpFile("orch_cache_roundtrip.jsonl");
  std::remove(cachePath.c_str());
  KernelSpec spec{BlasOp::Copy, ir::Scal::F64};

  OrchestratorConfig oc;
  oc.search = smokeConfig(2);
  oc.cachePath = cachePath;

  TuneResult cold, warm;
  uint64_t coldMisses = 0;
  {
    std::string err;
    Orchestrator orch(arch::p4e(), oc, &err);
    ASSERT_TRUE(err.empty()) << err;
    auto out = orch.tune(jobFor(spec));
    ASSERT_TRUE(out.result.ok) << out.result.error;
    cold = out.result;
    coldMisses = out.cacheMisses;
    EXPECT_GT(coldMisses, 0u);
  }
  {
    std::string err;
    Orchestrator orch(arch::p4e(), oc, &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(orch.cache().size(), coldMisses);  // reloaded from disk
    auto out = orch.tune(jobFor(spec));
    ASSERT_TRUE(out.result.ok) << out.result.error;
    warm = out.result;
    EXPECT_EQ(out.cacheMisses, 0u);  // 100% hit rate
    EXPECT_GT(out.cacheHits, 0u);
    EXPECT_EQ(out.evaluationsRun, 0);  // nothing re-timed
    // ...yet the result counts the same distinct candidates as the cold run.
    EXPECT_EQ(out.result.evaluations, cold.evaluations);
  }
  EXPECT_EQ(cold.best, warm.best);
  EXPECT_EQ(cold.bestCycles, warm.bestCycles);
  EXPECT_EQ(cold.ledger, warm.ledger);
  std::remove(cachePath.c_str());
}

/// The endpoints' counters come from the search's own outcomes: cold, they
/// equal a fresh evaluation of each endpoint and the cache's record of it;
/// a warm rerun from the same cache file replays the same values without
/// evaluating anything.
TEST(Orchestrator, EndpointCountersMatchFreshEvaluationAndCache) {
  KernelSpec ddot{BlasOp::Dot, ir::Scal::F64};
  std::ifstream in(std::string(IFKO_KERNELS_HIL_DIR) + "/dgemv.hil");
  ASSERT_TRUE(in.is_open());
  std::ostringstream gemv;
  gemv << in.rdbuf();
  const KernelJob jobs[] = {jobFor(ddot), {"dgemv", gemv.str(), nullptr}};
  const arch::MachineConfig machine = arch::p4e();

  for (const KernelJob& job : jobs) {
    SCOPED_TRACE(job.name);
    const std::string cachePath =
        tmpFile(("orch_endpoints_" + job.name + ".cache.jsonl").c_str());
    std::remove(cachePath.c_str());
    OrchestratorConfig oc;
    oc.search = smokeConfig(2);
    oc.search.context = sim::TimeContext::InL2;
    oc.cachePath = cachePath;

    TuneResult cold;
    {
      Orchestrator orch(machine, oc);
      cold = orch.tune(job).result;
      ASSERT_TRUE(cold.ok) << cold.error;
      ASSERT_TRUE(cold.defaultCounters.has_value());
      ASSERT_TRUE(cold.bestCounters.has_value());

      EvalPipeline fresh(job.hilSource, job.spec, machine, oc.search);
      const EvalOutcome def = evaluateCandidate(fresh.request(cold.defaults));
      const EvalOutcome best = evaluateCandidate(fresh.request(cold.best));
      EXPECT_EQ(def.cycles, cold.defaultCycles);
      EXPECT_EQ(best.cycles, cold.bestCycles);
      EXPECT_EQ(def.counters, cold.defaultCounters);
      EXPECT_EQ(best.counters, cold.bestCounters);

      EvalKey key{hashHex(job.hilSource),
                  machine.name,
                  std::string(sim::contextName(oc.search.context)),
                  oc.search.n,
                  oc.search.seed,
                  oc.search.testerN,
                  opt::formatTuningSpec(cold.defaults)};
      const std::optional<EvalRecord> defRec = orch.cache().lookup(key);
      key.params = opt::formatTuningSpec(cold.best);
      const std::optional<EvalRecord> bestRec = orch.cache().lookup(key);
      ASSERT_TRUE(defRec.has_value() && bestRec.has_value());
      EXPECT_EQ(defRec->counters, cold.defaultCounters);
      EXPECT_EQ(bestRec->counters, cold.bestCounters);
    }

    Orchestrator orch(machine, oc);
    const KernelOutcome warm = orch.tune(job);
    ASSERT_TRUE(warm.result.ok) << warm.result.error;
    EXPECT_EQ(warm.evaluationsRun, 0);
    EXPECT_EQ(warm.result.best, cold.best);
    EXPECT_EQ(warm.result.defaultCounters, cold.defaultCounters);
    EXPECT_EQ(warm.result.bestCounters, cold.bestCounters);
    std::remove(cachePath.c_str());
  }
}

TEST(Orchestrator, TraceIsWellFormedJsonl) {
  std::string tracePath = tmpFile("orch_trace.jsonl");
  std::remove(tracePath.c_str());
  KernelSpec spec{BlasOp::Scal, ir::Scal::F32};

  OrchestratorConfig oc;
  oc.search = smokeConfig(2);
  oc.tracePath = tracePath;
  {
    std::string err;
    Orchestrator orch(arch::p4e(), oc, &err);
    ASSERT_TRUE(err.empty()) << err;
    auto outcome = orch.tuneAll({jobFor(spec)});
    ASSERT_EQ(outcome.failures(), 0);
  }

  std::ifstream in(tracePath);
  ASSERT_TRUE(in.is_open());
  std::set<std::string> events;
  int lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    std::map<std::string, JsonValue> obj;
    std::string perr;
    ASSERT_TRUE(parseJsonObject(line, &obj, &perr)) << perr << ": " << line;
    auto ev = obj.find("event");
    ASSERT_NE(ev, obj.end()) << line;
    events.insert(ev->second.string);
    if (ev->second.string == "candidate") {
      // Every traced candidate carries a parseable canonical spec.
      auto params = obj.find("params");
      ASSERT_NE(params, obj.end());
      auto spec = opt::parseTuningSpec(params->second.string);
      EXPECT_TRUE(spec.ok) << spec.error;
    }
  }
  EXPECT_GT(lines, 10);
  for (const char* required : {"kernel_start", "dimension_start", "candidate",
                               "dimension_end", "kernel_end", "batch_end"})
    EXPECT_TRUE(events.count(required)) << required;
  std::remove(tracePath.c_str());
}

TEST(EvalCacheTest, PersistAndReload) {
  std::string path = tmpFile("evalcache_persist.jsonl");
  std::remove(path.c_str());
  EvalKey key{"deadbeef01234567", "P4E", "out-of-cache", 4096, 42, 64,
              "sv=Y ur=4 lc=Y ae=1 sched=spread wnt=N bf=N cisc=N"};
  {
    EvalCache cache;
    ASSERT_TRUE(cache.open(path));
    EXPECT_FALSE(cache.lookup(key).has_value());
    cache.insert(key, 12345, EvalOutcome::Status::Timed, EvalCounters{});
    cache.insert(key, 99999, EvalOutcome::Status::Timed,
                 EvalCounters{});  // duplicate insert is a no-op
    auto hit = cache.lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->cycles, 12345u);
    EXPECT_EQ(hit->status, EvalOutcome::Status::Timed);
  }
  {
    EvalCache cache;
    std::string err;
    ASSERT_TRUE(cache.open(path, &err)) << err;
    EXPECT_EQ(cache.size(), 1u);
    auto hit = cache.lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->cycles, 12345u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_EQ(cache.hitRate(), 1.0);
  }
  std::remove(path.c_str());
}

TEST(EvalCacheTest, SkipsCorruptLines) {
  std::string path = tmpFile("evalcache_corrupt.jsonl");
  {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"source\":\"aa\",\"machine\":\"P4E\",\"context\":\"in-L2\","
           "\"n\":128,\"seed\":1,\"tester_n\":16,\"params\":\"ur=2\","
           "\"cycles\":777,\"status\":\"timed\",\"counters\":{}}\n";
    out << "not json at all\n";
    out << "{\"source\":\"truncated\n";
  }
  EvalCache cache;
  ASSERT_TRUE(cache.open(path));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.damagedLines(), 2u);  // the bad JSON and the truncated tail
  EvalKey key{"aa", "P4E", "in-L2", 128, 1, 16, "ur=2"};
  auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->cycles, 777u);
  std::remove(path.c_str());
}

TEST(EvalCacheTest, ScreenedLineIsDamageAndItsCandidateIsReEvaluated) {
  // Caches written by screen-then-confirm (since removed) could hold
  // "status":"screened" lines.  Such a line no longer parses: it is skipped
  // and counted as damage, and its candidate is evaluated again at full
  // size, so the search matches a cold run exactly.
  KernelSpec spec{BlasOp::Scal, ir::Scal::F64};
  const SearchConfig cfg = smokeConfig();
  OrchestratorConfig coldCfg;
  coldCfg.search = cfg;
  Orchestrator coldOrch(arch::p4e(), coldCfg);
  const KernelOutcome cold = coldOrch.tune(jobFor(spec));
  ASSERT_TRUE(cold.result.ok) << cold.result.error;

  const EvalKey defaultsKey{hashHex(spec.hilSource()),
                            arch::p4e().name,
                            std::string(sim::contextName(cfg.context)),
                            cfg.n,
                            cfg.seed,
                            cfg.testerN,
                            opt::formatTuningSpec(cold.result.defaults)};
  std::string path = tmpFile("evalcache_screened.jsonl");
  {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"source\":\"" << defaultsKey.sourceHash << "\",\"machine\":\""
        << defaultsKey.machine << "\",\"context\":\"" << defaultsKey.context
        << "\",\"n\":" << defaultsKey.n << ",\"seed\":" << defaultsKey.seed
        << ",\"tester_n\":" << defaultsKey.testerN << ",\"params\":\""
        << defaultsKey.params << "\",\"cycles\":0,\"status\":\"screened\"}\n";
  }
  OrchestratorConfig oc;
  oc.search = cfg;
  oc.cachePath = path;
  std::string err;
  Orchestrator orch(arch::p4e(), oc, &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(orch.cache().size(), 0u);
  EXPECT_EQ(orch.cache().damagedLines(), 1u);

  const KernelOutcome warm = orch.tune(jobFor(spec));
  ASSERT_TRUE(warm.result.ok) << warm.result.error;
  EXPECT_EQ(warm.cacheHits, cold.cacheHits);
  EXPECT_EQ(warm.cacheMisses, cold.cacheMisses);
  EXPECT_EQ(warm.result.evaluations, cold.result.evaluations);
  EXPECT_EQ(warm.result.defaultCycles, cold.result.defaultCycles);
  EXPECT_EQ(warm.result.best, cold.result.best);
  EXPECT_EQ(warm.result.bestCycles, cold.result.bestCycles);
  // The re-evaluated DEFAULTS point is now cached under the same key.
  auto rec = orch.cache().lookup(defaultsKey);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->status, EvalOutcome::Status::Timed);
  EXPECT_EQ(rec->cycles, cold.result.defaultCycles);
  std::remove(path.c_str());
}

TEST(EvalKeyTest, DistinctFieldsDistinctKeys) {
  EvalKey a{"h", "P4E", "out-of-cache", 4096, 42, 64, "ur=1"};
  EvalKey b = a;
  EXPECT_EQ(a.str(), b.str());
  b.n = 8192;
  EXPECT_NE(a.str(), b.str());
  b = a;
  b.context = "in-L2";
  EXPECT_NE(a.str(), b.str());
  b = a;
  b.testerN = 128;
  EXPECT_NE(a.str(), b.str());
  b = a;
  b.params = "ur=2";
  EXPECT_NE(a.str(), b.str());
}

TEST(LoadKernelDir, LoadsSortedHilFiles) {
  std::string err;
  auto jobs = loadKernelDir(IFKO_KERNELS_HIL_DIR, &err);
  ASSERT_FALSE(jobs.empty()) << err;
  EXPECT_TRUE(err.empty());
  for (size_t i = 1; i < jobs.size(); ++i)
    EXPECT_LT(jobs[i - 1].name, jobs[i].name);
  for (const auto& j : jobs) {
    EXPECT_FALSE(j.hilSource.empty()) << j.name;
    EXPECT_EQ(j.name.find(".hil"), std::string::npos) << j.name;
  }
}

TEST(LoadKernelDir, MissingDirectoryReportsError) {
  std::string err;
  auto jobs = loadKernelDir("/nonexistent-ifko-kernel-dir", &err);
  EXPECT_TRUE(jobs.empty());
  EXPECT_FALSE(err.empty());
}

}  // namespace
}  // namespace ifko::search
