// Fault-isolated evaluation: the FaultPlan grammar, the cooperative
// deadline, guardedEvaluateCandidate's classification contract,
// exception containment in the thread pool, the quarantine policy, and
// failure replay through the persistent cache.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <sys/stat.h>

#include "arch/machine.h"
#include "fko/compiler.h"
#include "search/orchestrator.h"
#include "search/threadpool.h"
#include "sim/budget.h"
#include "support/json.h"

namespace ifko::search {
namespace {

using kernels::BlasOp;
using kernels::KernelSpec;

std::string tmpFile(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

// --- FaultPlan grammar ----------------------------------------------------

TEST(FaultPlanParse, AcceptsTheDocumentedGrammar) {
  std::string err;
  auto plan = FaultPlan::parse(
      "crash@3, hang@10+7 ,tester%5:seed=42", &err);
  ASSERT_TRUE(plan.has_value()) << err;
  ASSERT_EQ(plan->rules.size(), 3u);

  EXPECT_EQ(plan->rules[0].kind, FaultPlan::Kind::Crash);
  EXPECT_EQ(plan->rules[0].at, 3u);
  EXPECT_EQ(plan->rules[0].every, 0u);

  EXPECT_EQ(plan->rules[1].kind, FaultPlan::Kind::Hang);
  EXPECT_EQ(plan->rules[1].at, 10u);
  EXPECT_EQ(plan->rules[1].every, 7u);

  EXPECT_EQ(plan->rules[2].kind, FaultPlan::Kind::TesterFail);
  EXPECT_EQ(plan->rules[2].oneIn, 5u);
  EXPECT_EQ(plan->rules[2].seed, 42u);
}

TEST(FaultPlanParse, EmptySpecIsAnEmptyPlan) {
  std::string err;
  auto plan = FaultPlan::parse("", &err);
  ASSERT_TRUE(plan.has_value()) << err;
  EXPECT_TRUE(plan->empty());
}

TEST(FaultPlanParse, RejectsMalformedRules) {
  for (const char* bad :
       {"bogus@3", "crash", "crash@0", "crash@", "crash%0", "crash@x",
        "crash@3+0", "hang@2:seed=abc", "crash@3:frequently",
        "crash@3:once", "crash@18446744073709551617", "crash%-5",
        "hang@2:seed=0"}) {
    std::string err;
    EXPECT_FALSE(FaultPlan::parse(bad, &err).has_value()) << bad;
    EXPECT_FALSE(err.empty()) << bad;
  }
}

TEST(FaultPlanFires, Schedules) {
  std::string err;
  auto plan = FaultPlan::parse("crash@2,hang@5+3", &err);
  ASSERT_TRUE(plan.has_value()) << err;
  EXPECT_FALSE(plan->fires(1).has_value());
  EXPECT_EQ(plan->fires(2), FaultPlan::Kind::Crash);
  EXPECT_EQ(plan->fires(5), FaultPlan::Kind::Hang);
  EXPECT_EQ(plan->fires(8), FaultPlan::Kind::Hang);
  EXPECT_EQ(plan->fires(11), FaultPlan::Kind::Hang);
  EXPECT_FALSE(plan->fires(6).has_value());
}

TEST(FaultPlanFires, RandomRuleIsSeedStable) {
  std::string err;
  auto a = FaultPlan::parse("crash%4:seed=9", &err);
  auto b = FaultPlan::parse("crash%4:seed=9", &err);
  auto c = FaultPlan::parse("crash%4:seed=10", &err);
  ASSERT_TRUE(a.has_value() && b.has_value() && c.has_value());
  int fired = 0, differs = 0;
  for (uint64_t i = 1; i <= 400; ++i) {
    EXPECT_EQ(a->fires(i).has_value(), b->fires(i).has_value());
    fired += a->fires(i).has_value() ? 1 : 0;
    differs += a->fires(i).has_value() != c->fires(i).has_value();
  }
  EXPECT_GT(fired, 50);   // ~100 expected at 1/4
  EXPECT_LT(fired, 200);
  EXPECT_GT(differs, 0);  // a different seed is a different schedule
}

// --- The cooperative deadline ---------------------------------------------

TEST(ScopedEvalBudget, ChargesAndThrowsOnExhaustion) {
  EXPECT_FALSE(sim::ScopedEvalBudget::active());
  {
    sim::ScopedEvalBudget budget(/*steps=*/10, /*cycles=*/0);
    EXPECT_TRUE(sim::ScopedEvalBudget::active());
    sim::ScopedEvalBudget::chargeSteps(9);
    EXPECT_THROW(sim::ScopedEvalBudget::chargeSteps(2), sim::TimeoutError);
  }
  EXPECT_FALSE(sim::ScopedEvalBudget::active());
  // Charging with no budget armed is a no-op, not an error.
  sim::ScopedEvalBudget::chargeSteps(1'000'000);
}

TEST(ScopedEvalBudget, CycleCapAndNesting) {
  sim::ScopedEvalBudget outer(1000, 500);
  sim::ScopedEvalBudget::checkCycles(500);  // at the cap is fine
  EXPECT_THROW(sim::ScopedEvalBudget::checkCycles(501), sim::TimeoutError);
  {
    sim::ScopedEvalBudget inner(10, 50);
    EXPECT_THROW(sim::ScopedEvalBudget::checkCycles(51), sim::TimeoutError);
  }
  // The outer budget is restored when the inner scope ends.
  EXPECT_TRUE(sim::ScopedEvalBudget::active());
  sim::ScopedEvalBudget::checkCycles(400);
}

TEST(ScopedEvalBudget, InterpreterChargesTheBudget) {
  // A real (uninjected) evaluation whose simulated work exceeds the
  // deadline must time out via the interpreter's step accounting.
  KernelSpec spec{BlasOp::Dot, ir::Scal::F64};
  auto machine = arch::p4e();
  SearchConfig cfg = SearchConfig::smoke();
  cfg.n = 2'000'000;  // far more than 1 ms of simulated work
  cfg.evalTimeoutMs = 1;
  EvalPipeline pipeline(spec.hilSource(), &spec, machine, cfg);
  EvalOutcome o = guardedEvaluateCandidate(pipeline.request({}));
  EXPECT_EQ(o.status, EvalOutcome::Status::Timeout);
  EXPECT_EQ(o.cycles, 0u);
}

// What makes a single evaluation enough: with no injector, a candidate
// that exceeds its deadline times out again when evaluated a second time.
TEST(ScopedEvalBudget, RealTimeoutRecurs) {
  KernelSpec spec{BlasOp::Dot, ir::Scal::F64};
  auto machine = arch::p4e();
  SearchConfig cfg = SearchConfig::smoke();
  cfg.n = 80000;  // about 1.4 M simulated cycles at best
  cfg.evalTimeoutMs = 1;
  EvalPipeline pipeline(spec.hilSource(), &spec, machine, cfg);
  for (int run = 0; run < 2; ++run) {
    EvalOutcome o = guardedEvaluateCandidate(pipeline.request({}));
    EXPECT_EQ(o.status, EvalOutcome::Status::Timeout) << "run " << run;
    EXPECT_EQ(o.cycles, 0u) << "run " << run;
  }
}

// A huge --eval-timeout-ms means "no practical limit".  ms * 1'000'000
// cycles wraps to a 448,384-cycle cap at 18446744073710 ms, which would time
// the same candidate out; the caps saturate instead.
TEST(ScopedEvalBudget, HugeTimeoutSaturatesInsteadOfWrapping) {
  KernelSpec spec{BlasOp::Dot, ir::Scal::F64};
  auto machine = arch::p4e();
  SearchConfig cfg = SearchConfig::smoke();
  cfg.n = 80000;
  EvalPipeline pipeline(spec.hilSource(), &spec, machine, cfg);
  EvalOutcome untimed = guardedEvaluateCandidate(pipeline.request({}));
  ASSERT_EQ(untimed.status, EvalOutcome::Status::Timed);
  ASSERT_GT(untimed.cycles, 448'384u);
  for (int64_t ms : {int64_t{18446744073710}, INT64_MAX}) {
    cfg.evalTimeoutMs = ms;
    EvalOutcome o = guardedEvaluateCandidate(pipeline.request({}));
    EXPECT_EQ(o.status, EvalOutcome::Status::Timed) << ms;
    EXPECT_EQ(o.cycles, untimed.cycles) << ms;
  }
}

// --- guardedEvaluateCandidate ---------------------------------------------

struct GuardFixture : ::testing::Test {
  KernelSpec spec{BlasOp::Dot, ir::Scal::F64};
  arch::MachineConfig machine = arch::p4e();
  SearchConfig cfg = SearchConfig::smoke();
  EvalPipeline pipeline{spec.hilSource(), &spec, machine, cfg};

  EvalRequest request(FaultInjector* injector = nullptr) {
    EvalRequest req = pipeline.request({});
    req.injector = injector;
    if (injector != nullptr) req.faultIndex = injector->nextIndex();
    return req;
  }

  EvalOutcome evalWithPlan(const std::string& planSpec) {
    std::string err;
    auto plan = FaultPlan::parse(planSpec, &err);
    EXPECT_TRUE(plan.has_value()) << err;
    FaultInjector injector(*plan);
    return guardedEvaluateCandidate(request(&injector));
  }
};

TEST_F(GuardFixture, CleanEvaluationPassesThrough) {
  EvalOutcome o = guardedEvaluateCandidate(request());
  EXPECT_EQ(o.status, EvalOutcome::Status::Timed);
  EXPECT_GT(o.cycles, 0u);
  EXPECT_TRUE(o.usable());
  EXPECT_FALSE(o.hardFailure());
}

TEST_F(GuardFixture, InjectedCrashBecomesCrash) {
  EvalOutcome o = evalWithPlan("crash@1");
  EXPECT_EQ(o.status, EvalOutcome::Status::Crash);
  EXPECT_EQ(o.cycles, 0u);
  EXPECT_TRUE(o.hardFailure());
  EXPECT_FALSE(o.usable());
}

TEST_F(GuardFixture, HangBecomesTimeoutUnderDeadline) {
  // INT64_MAX saturates the step budget; the hang must still end at once.
  for (int64_t ms : {int64_t{10}, INT64_MAX}) {
    cfg.evalTimeoutMs = ms;
    EvalOutcome o = evalWithPlan("hang@1");
    EXPECT_EQ(o.status, EvalOutcome::Status::Timeout) << ms;
    EXPECT_EQ(o.cycles, 0u) << ms;
    EXPECT_TRUE(o.hardFailure()) << ms;
  }
}

TEST_F(GuardFixture, HangIsContainedEvenWithoutDeadline) {
  cfg.evalTimeoutMs = 0;
  EvalOutcome o = evalWithPlan("hang@1");
  EXPECT_EQ(o.status, EvalOutcome::Status::Timeout);
}

TEST_F(GuardFixture, InjectedTesterFailIsNotRetried) {
  EvalOutcome o = evalWithPlan("tester@1");
  EXPECT_EQ(o.status, EvalOutcome::Status::TesterFail);
  EXPECT_FALSE(o.hardFailure());  // a rejection, not quarantine-worthy
}

// --- ThreadPool exception containment -------------------------------------

TEST(ThreadPoolTest, ExceptionInWorkerIsRethrownOnCaller) {
  detail::ThreadPool pool(8);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.parallelFor(64,
                       [&](size_t i) {
                         ++ran;
                         if (i == 13) throw std::runtime_error("boom 13");
                       }),
      std::runtime_error);
  // The whole batch drained even though one task threw.
  EXPECT_EQ(ran.load(), 64);

  // The pool survives and is reusable after the exceptional batch.
  std::atomic<int> again{0};
  pool.parallelFor(32, [&](size_t) { ++again; });
  EXPECT_EQ(again.load(), 32);
}

TEST(ThreadPoolTest, FirstOfManyExceptionsWins) {
  detail::ThreadPool pool(4);
  std::atomic<int> ran{0};
  try {
    pool.parallelFor(16, [&](size_t i) {
      ++ran;
      throw std::runtime_error("boom " + std::to_string(i));
    });
    FAIL() << "parallelFor swallowed the exceptions";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("boom ", 0), 0u);
  }
  EXPECT_EQ(ran.load(), 16);
}

// --- Quarantine through the orchestrator ----------------------------------

TEST(Quarantine, RepeatedHardFailuresAbandonTheKernel) {
  KernelSpec spec{BlasOp::Scal, ir::Scal::F32};
  OrchestratorConfig oc;
  oc.search = SearchConfig::smoke();
  oc.search.jobs = 2;
  oc.quarantineAfter = 2;
  // Spare the default evaluation (index 1) so the search gets going, then
  // crash everything after it.
  std::string err;
  auto plan = FaultPlan::parse("crash@2+1", &err);
  ASSERT_TRUE(plan.has_value()) << err;
  oc.faultPlan = *plan;

  Orchestrator orch(arch::p4e(), oc);
  auto out = orch.tune({spec.name(), spec.hilSource(), &spec});
  EXPECT_FALSE(out.result.ok);
  EXPECT_TRUE(out.quarantined);
  EXPECT_NE(out.result.error.find("quarantined"), std::string::npos)
      << out.result.error;
  EXPECT_GE(out.faults.crashes, 2);
  ASSERT_EQ(orch.quarantined().size(), 1u);
  EXPECT_EQ(orch.quarantined()[0].kernel, spec.name());
  EXPECT_GE(orch.quarantined()[0].faults.hard(), 2);
}

TEST(Quarantine, BatchContinuesPastAQuarantinedKernel) {
  KernelSpec a{BlasOp::Copy, ir::Scal::F32};
  KernelSpec b{BlasOp::Copy, ir::Scal::F64};
  OrchestratorConfig oc;
  oc.search = SearchConfig::smoke();
  oc.quarantineAfter = 2;
  std::string err;
  // Crash evaluations 2-4 — enough to quarantine the first kernel — and
  // nothing after, so the second kernel's evaluations run clean.
  auto plan = FaultPlan::parse("crash@2,crash@3,crash@4", &err);
  ASSERT_TRUE(plan.has_value()) << err;
  oc.faultPlan = *plan;

  Orchestrator orch(arch::p4e(), oc);
  auto batch = orch.tuneAll({{a.name(), a.hilSource(), &a},
                             {b.name(), b.hilSource(), &b}});
  ASSERT_EQ(batch.kernels.size(), 2u);
  EXPECT_TRUE(batch.kernels[0].quarantined);
  EXPECT_FALSE(batch.kernels[0].result.ok);
  EXPECT_TRUE(batch.kernels[1].result.ok) << batch.kernels[1].result.error;
  EXPECT_FALSE(batch.kernels[1].quarantined);
  EXPECT_EQ(batch.quarantined(), 1);
  EXPECT_EQ(batch.failures(), 1);
}

TEST(Quarantine, ZeroThresholdNeverQuarantines) {
  KernelSpec spec{BlasOp::Asum, ir::Scal::F64};
  OrchestratorConfig oc;
  oc.search = SearchConfig::smoke();
  oc.quarantineAfter = 0;
  std::string err;
  auto plan = FaultPlan::parse("crash@2+2", &err);
  ASSERT_TRUE(plan.has_value()) << err;
  oc.faultPlan = *plan;

  Orchestrator orch(arch::p4e(), oc);
  auto out = orch.tune({spec.name(), spec.hilSource(), &spec});
  EXPECT_FALSE(out.quarantined);
  EXPECT_TRUE(orch.quarantined().empty());
  EXPECT_GT(out.faults.crashes, 3);  // plenty of crashes, no abandonment
}

// --- Cache schema v2 and failure replay -----------------------------------

TEST(EvalCacheV2, StatusRoundTripsThroughDisk) {
  std::string path = tmpFile("evalcache_status.jsonl");
  std::remove(path.c_str());
  EvalKey timed{"aaaa", "P4E", "out-of-cache", 4096, 42, 64, "ur=1"};
  EvalKey timeout{"aaaa", "P4E", "out-of-cache", 4096, 42, 64, "ur=2"};
  EvalKey crash{"aaaa", "P4E", "out-of-cache", 4096, 42, 64, "ur=4"};
  {
    EvalCache cache;
    ASSERT_TRUE(cache.open(path));
    cache.insert(timed, 5555, EvalOutcome::Status::Timed, EvalCounters{});
    cache.insert(timeout, 0, EvalOutcome::Status::Timeout);
    cache.insert(crash, 0, EvalOutcome::Status::Crash);
  }
  EvalCache cache;
  ASSERT_TRUE(cache.open(path));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.lookup(timed)->status, EvalOutcome::Status::Timed);
  EXPECT_EQ(cache.lookup(timed)->cycles, 5555u);
  EXPECT_EQ(cache.lookup(timeout)->status, EvalOutcome::Status::Timeout);
  EXPECT_EQ(cache.lookup(crash)->status, EvalOutcome::Status::Crash);
  std::remove(path.c_str());
}

TEST(EvalCacheV2, LegacyLinesAreSkippedAsDamage) {
  std::string path = tmpFile("evalcache_v1.jsonl");
  {
    std::ofstream out(path, std::ios::trunc);
    // v1 lines (no status field) and a v2 timed line (no counters): each
    // would replay differently from a fresh evaluation.
    out << "{\"source\":\"v1\",\"machine\":\"P4E\",\"context\":\"in-L2\","
           "\"n\":128,\"seed\":1,\"tester_n\":16,\"params\":\"ur=2\","
           "\"cycles\":777}\n";
    out << "{\"source\":\"v1\",\"machine\":\"P4E\",\"context\":\"in-L2\","
           "\"n\":128,\"seed\":1,\"tester_n\":16,\"params\":\"ur=4\","
           "\"cycles\":0}\n";
    out << "{\"source\":\"v1\",\"machine\":\"P4E\",\"context\":\"in-L2\","
           "\"n\":128,\"seed\":1,\"tester_n\":16,\"params\":\"ur=8\","
           "\"cycles\":777,\"status\":\"timed\"}\n";
  }
  EvalCache cache;
  ASSERT_TRUE(cache.open(path));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.damagedLines(), 3u);
  EXPECT_FALSE(
      cache.lookup({"v1", "P4E", "in-L2", 128, 1, 16, "ur=2"}).has_value());
  EXPECT_FALSE(
      cache.lookup({"v1", "P4E", "in-L2", 128, 1, 16, "ur=4"}).has_value());
  EXPECT_FALSE(
      cache.lookup({"v1", "P4E", "in-L2", 128, 1, 16, "ur=8"}).has_value());
  std::remove(path.c_str());
}

TEST(EvalCacheV2, UnknownStatusCountsAsDamage) {
  std::string path = tmpFile("evalcache_badstatus.jsonl");
  {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"source\":\"x\",\"machine\":\"P4E\",\"context\":\"in-L2\","
           "\"n\":128,\"seed\":1,\"tester_n\":16,\"params\":\"ur=2\","
           "\"cycles\":0,\"status\":\"exploded\"}\n";
  }
  EvalCache cache;
  ASSERT_TRUE(cache.open(path));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.damagedLines(), 1u);
  std::remove(path.c_str());
}

TEST(EvalStatusNames, RoundTrip) {
  for (EvalOutcome::Status s :
       {EvalOutcome::Status::Timed, EvalOutcome::Status::CompileFail,
        EvalOutcome::Status::TesterFail, EvalOutcome::Status::Timeout,
        EvalOutcome::Status::Crash}) {
    auto parsed = parseEvalStatus(evalStatusName(s));
    ASSERT_TRUE(parsed.has_value()) << evalStatusName(s);
    EXPECT_EQ(*parsed, s);
  }
  EXPECT_FALSE(parseEvalStatus("nonsense").has_value());
  // So was "fail", the v1 cache's unrecorded failure.
  EXPECT_FALSE(parseEvalStatus("fail").has_value());
  // Screen-then-confirm and its "screened" status were removed.
  EXPECT_FALSE(parseEvalStatus("screened").has_value());
}

TEST(FailureReplay, WarmRunReproducesColdOutcomesWithoutEvaluating) {
  std::string cachePath = tmpFile("fault_replay.cache.jsonl");
  std::remove(cachePath.c_str());
  KernelSpec spec{BlasOp::Axpy, ir::Scal::F32};

  OrchestratorConfig oc;
  oc.search = SearchConfig::smoke();
  oc.cachePath = cachePath;
  std::string err;
  // Deterministically reject two non-default candidates.
  auto plan = FaultPlan::parse("tester@4,tester@9", &err);
  ASSERT_TRUE(plan.has_value()) << err;
  oc.faultPlan = *plan;

  KernelOutcome cold, warm;
  {
    Orchestrator orch(arch::p4e(), oc);
    cold = orch.tune({spec.name(), spec.hilSource(), &spec});
    ASSERT_TRUE(cold.result.ok) << cold.result.error;
    EXPECT_EQ(cold.faults.testerFails, 2);
  }
  {
    OrchestratorConfig warmConfig = oc;
    warmConfig.faultPlan = FaultPlan{};  // no injector on the warm run
    Orchestrator orch(arch::p4e(), warmConfig);
    warm = orch.tune({spec.name(), spec.hilSource(), &spec});
  }
  ASSERT_TRUE(warm.result.ok) << warm.result.error;
  EXPECT_EQ(warm.evaluationsRun, 0);  // everything replayed from cache
  EXPECT_EQ(warm.result.evaluations, cold.result.evaluations);
  EXPECT_EQ(warm.faults.testerFails, cold.faults.testerFails);
  EXPECT_EQ(warm.cacheMisses, 0u);
  EXPECT_EQ(cold.result.best, warm.result.best);
  EXPECT_EQ(cold.result.bestCycles, warm.result.bestCycles);
  EXPECT_EQ(cold.result.ledger, warm.result.ledger);
  std::remove(cachePath.c_str());
}

// A warm run replays the crashes the cold run cached — and counts them, so
// a kernel quarantined cold stays quarantined warm, with the same
// diagnostic, even with no injector left to crash anything.
TEST(FailureReplay, WarmRunStaysQuarantinedWithoutTheInjector) {
  std::string cachePath = tmpFile("fault_quarantine_replay.cache.jsonl");
  std::remove(cachePath.c_str());
  KernelSpec spec{BlasOp::Scal, ir::Scal::F32};

  OrchestratorConfig oc;
  oc.search = SearchConfig::smoke();
  oc.search.n = 1024;
  oc.quarantineAfter = 2;
  oc.cachePath = cachePath;
  std::string err;
  auto plan = FaultPlan::parse("crash@2+1", &err);
  ASSERT_TRUE(plan.has_value()) << err;
  oc.faultPlan = *plan;

  KernelOutcome cold, warm;
  {
    Orchestrator orch(arch::p4e(), oc);
    cold = orch.tune({spec.name(), spec.hilSource(), &spec});
  }
  ASSERT_TRUE(cold.quarantined) << cold.result.error;
  {
    OrchestratorConfig warmConfig = oc;
    warmConfig.faultPlan = FaultPlan{};
    Orchestrator orch(arch::p4e(), warmConfig);
    warm = orch.tune({spec.name(), spec.hilSource(), &spec});
  }
  EXPECT_TRUE(warm.quarantined);
  EXPECT_FALSE(warm.result.ok);
  EXPECT_EQ(warm.result.error, cold.result.error);
  EXPECT_EQ(warm.faults.crashes, cold.faults.crashes);
  EXPECT_EQ(warm.result.evaluations, cold.result.evaluations);
  EXPECT_EQ(warm.evaluationsRun, 0);
  std::remove(cachePath.c_str());
}

// --- Trace append and run_start -------------------------------------------

TEST(TraceAppend, SecondRunAppendsWithItsOwnRunStart) {
  std::string tracePath = tmpFile("fault_trace_append.jsonl");
  std::remove(tracePath.c_str());
  KernelSpec spec{BlasOp::Swap, ir::Scal::F32};
  OrchestratorConfig oc;
  oc.search = SearchConfig::smoke();
  oc.tracePath = tracePath;
  for (int run = 0; run < 2; ++run) {
    Orchestrator orch(arch::p4e(), oc);
    auto out = orch.tune({spec.name(), spec.hilSource(), &spec});
    ASSERT_TRUE(out.result.ok) << out.result.error;
  }

  std::ifstream in(tracePath);
  ASSERT_TRUE(in.is_open());
  int runStarts = 0, kernelEnds = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::map<std::string, JsonValue> obj;
    ASSERT_TRUE(parseJsonObject(line, &obj)) << line;
    const std::string& event = obj.at("event").string;
    if (event == "run_start") ++runStarts;
    if (event == "kernel_end") ++kernelEnds;
  }
  EXPECT_EQ(runStarts, 2);  // append mode: both runs survive in the file
  EXPECT_EQ(kernelEnds, 2);
  std::remove(tracePath.c_str());
}

TEST(TraceAppend, FailedCandidatesCarryVerdictAndAttempts) {
  std::string tracePath = tmpFile("fault_trace_verdicts.jsonl");
  std::remove(tracePath.c_str());
  KernelSpec spec{BlasOp::Dot, ir::Scal::F32};
  OrchestratorConfig oc;
  oc.search = SearchConfig::smoke();
  oc.tracePath = tracePath;
  std::string err;
  auto plan = FaultPlan::parse("crash@3,tester@5", &err);
  ASSERT_TRUE(plan.has_value()) << err;
  oc.faultPlan = *plan;
  {
    Orchestrator orch(arch::p4e(), oc);
    auto out = orch.tune({spec.name(), spec.hilSource(), &spec});
    ASSERT_TRUE(out.result.ok) << out.result.error;
  }

  std::ifstream in(tracePath);
  ASSERT_TRUE(in.is_open());
  bool sawCrash = false, sawTesterFail = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::map<std::string, JsonValue> obj;
    ASSERT_TRUE(parseJsonObject(line, &obj)) << line;
    if (obj.at("event").string != "candidate") continue;
    const std::string& verdict = obj.at("verdict").string;
    if (verdict == "crash") sawCrash = true;
    if (verdict == "tester_fail") sawTesterFail = true;
  }
  EXPECT_TRUE(sawCrash);
  EXPECT_TRUE(sawTesterFail);
  std::remove(tracePath.c_str());
}

// --- loadKernelDir error paths --------------------------------------------

TEST(LoadKernelDirErrors, RegularFileIsNotADirectory) {
  std::string path = tmpFile("not_a_dir.hil");
  { std::ofstream(path) << "x"; }
  std::string err;
  auto jobs = loadKernelDir(path, &err);
  EXPECT_TRUE(jobs.empty());
  EXPECT_NE(err.find("not a directory"), std::string::npos) << err;
  std::remove(path.c_str());
}

TEST(LoadKernelDirErrors, EmptyDirectoryHasNoKernels) {
  std::string dir = tmpFile("empty_kernel_dir");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directory(dir);
  std::string err;
  auto jobs = loadKernelDir(dir, &err);
  EXPECT_TRUE(jobs.empty());
  EXPECT_NE(err.find("no .hil files"), std::string::npos) << err;
  std::filesystem::remove_all(dir);
}

TEST(LoadKernelDirErrors, DirectoryWithOnlyOtherFilesHasNoKernels) {
  std::string dir = tmpFile("no_hil_dir");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directory(dir);
  { std::ofstream(dir + "/readme.txt") << "not a kernel"; }
  std::string err;
  auto jobs = loadKernelDir(dir, &err);
  EXPECT_TRUE(jobs.empty());
  EXPECT_NE(err.find("no .hil files"), std::string::npos) << err;
  std::filesystem::remove_all(dir);
}

TEST(LoadKernelDirErrors, UnreadableFileReportsError) {
  std::string dir = tmpFile("unreadable_kernel_dir");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directory(dir);
  std::string file = dir + "/locked.hil";
  { std::ofstream(file) << "ROUT locked\n"; }
  ::chmod(file.c_str(), 0);
  if (::access(file.c_str(), R_OK) == 0) {
    // Running as root: permission bits don't bite, the path is untestable.
    std::filesystem::remove_all(dir);
    GTEST_SKIP() << "cannot make a file unreadable under this uid";
  }
  std::string err;
  auto jobs = loadKernelDir(dir, &err);
  EXPECT_TRUE(jobs.empty());
  EXPECT_NE(err.find("cannot read"), std::string::npos) << err;
  ::chmod(file.c_str(), 0644);
  std::filesystem::remove_all(dir);
}

// --- Jobs normalization ----------------------------------------------------

TEST(JobsNormalization, NonPositiveJobsNormalizeToOne) {
  for (int requested : {0, -4}) {
    OrchestratorConfig oc;
    oc.search = SearchConfig::smoke();
    oc.search.jobs = requested;
    Orchestrator orch(arch::p4e(), oc);
    EXPECT_EQ(orch.jobs(), 1) << "requested " << requested;
  }
  OrchestratorConfig oc;
  oc.search = SearchConfig::smoke();
  oc.search.jobs = 3;
  Orchestrator orch(arch::p4e(), oc);
  EXPECT_EQ(orch.jobs(), 3);
}

}  // namespace
}  // namespace ifko::search
