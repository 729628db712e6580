// Fault-recovery harness: the whole 14-kernel batch survives injected
// evaluation faults at any worker count.
//
// The paper's search is only as robust as its worst candidate: one hung or
// crashing evaluation must not cost the batch (paper §3 keeps the timer
// loop alive across bad candidates).  This bench drives `tune-all` over
// every registry kernel with a deterministic FaultPlan mixing persistent
// crashes, hangs and an injected tester rejection, at jobs=1 and jobs=8,
// and checks the recovery contract:
//   * no kernel is lost: every kernel comes back with an outcome, tuned,
//     failed or quarantined (with a diagnostic);
//   * the faults fire and are tallied per kernel;
//   * a warm re-run from the same cache, with no injector, replays every
//     outcome (quarantine included) with zero fresh evaluations — failures
//     are memoized, not re-suffered.
// Any violated check exits nonzero.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness.h"
#include "search/orchestrator.h"

using namespace ifko;

namespace {

std::vector<search::KernelJob> registryJobs() {
  std::vector<search::KernelJob> jobs;
  for (const auto& k : kernels::allKernels())
    jobs.push_back({k.name(), k.hilSource(), &k});
  return jobs;
}

int failures = 0;

void check(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "FAULT-RECOVERY VIOLATION: %s\n", what.c_str());
}

search::BatchOutcome runBatch(const std::vector<search::KernelJob>& jobs,
                              const search::SearchConfig& base, int workers,
                              const std::string& cachePath,
                              const std::string& faultSpec,
                              size_t* quarantined) {
  search::OrchestratorConfig oc;
  oc.search = base;
  oc.search.jobs = workers;
  oc.search.evalTimeoutMs = 50;
  oc.cachePath = cachePath;
  if (!faultSpec.empty()) {
    std::string err;
    auto plan = search::FaultPlan::parse(faultSpec, &err);
    check(plan.has_value(), "fault plan '" + faultSpec + "': " + err);
    if (plan.has_value()) oc.faultPlan = *plan;
  }
  search::Orchestrator orch(arch::p4e(), oc);
  auto batch = orch.tuneAll(jobs);
  *quarantined = orch.quarantined().size();
  return batch;
}

bool sameFaults(const search::FailureCounts& a,
                const search::FailureCounts& b) {
  return a.timeouts == b.timeouts && a.crashes == b.crashes &&
         a.testerFails == b.testerFails && a.compileFails == b.compileFails;
}

std::vector<std::string> row(const std::string& label,
                             const search::BatchOutcome& b) {
  return {label,
          std::to_string(b.kernels.size()),
          std::to_string(static_cast<int>(b.kernels.size()) - b.failures()),
          std::to_string(b.quarantined()),
          std::to_string(b.evaluations),
          std::to_string(b.faults.timeouts),
          std::to_string(b.faults.crashes),
          std::to_string(b.faults.testerFails),
          fmtFixed(b.wallSeconds, 2)};
}

}  // namespace

int main() {
  auto sz = bench::sizes();
  search::SearchConfig cfg =
      bench::tuneConfig(sz.fast ? 4096 : sz.ooc,
                        sim::TimeContext::OutOfCache, sz.fast);

  auto jobs = registryJobs();
  std::printf("=== Fault recovery: %zu kernels, p4e, ooc N=%lld, injected "
              "crash/hang/tester faults ===\n\n",
              jobs.size(), static_cast<long long>(cfg.n));

  // Crashes (~1/13 of evaluations) and hangs (~1/17) that recur wherever
  // they land, so kernels that collect 3 of them are quarantined; tester@4
  // rejects one candidate of the first kernel.  Indices are
  // schedule-dependent above jobs=1, which is the point: recovery must not
  // care which candidate the fault lands on.
  const std::string plan = "crash%13:seed=7,hang%17:seed=11,tester@4";

  TextTable t;
  t.setHeader({"schedule", "kernels", "ok", "quarantined", "evals",
               "timeouts", "crashes", "tester-", "wall s"});
  for (int workers : {1, 8}) {
    const std::string tag = "jobs=" + std::to_string(workers);
    const std::string cachePath =
        "bench_fault_recovery.j" + std::to_string(workers) + ".cache.jsonl";
    std::remove(cachePath.c_str());

    size_t coldRecords = 0;
    auto cold = runBatch(jobs, cfg, workers, cachePath, plan, &coldRecords);
    check(cold.kernels.size() == jobs.size(), "cold " + tag + " lost kernels");
    check(cold.faults.crashes > 0, "cold " + tag + ": no crash fired");
    check(cold.faults.timeouts > 0, "cold " + tag + ": no hang fired");
    check(cold.faults.testerFails >= 1,
          "cold " + tag + ": the injected tester rejection never fired");
    check(cold.quarantined() > 0,
          "cold " + tag + ": no kernel was quarantined, so the warm run "
                          "would not test quarantine replay");
    check(coldRecords == static_cast<size_t>(cold.quarantined()),
          "cold " + tag + ": quarantine ledger disagrees with outcomes");
    for (const auto& k : cold.kernels)
      if (k.quarantined)
        check(!k.result.ok &&
                  k.result.error.find("quarantined") != std::string::npos,
              "cold " + tag + ": " + k.name +
                  " quarantined without diagnostic");

    // Warm replay, no injector: everything is served from the cache,
    // including the memoized failures, so outcomes match bit for bit and a
    // kernel quarantined cold stays quarantined warm.
    size_t warmRecords = 0;
    auto warm = runBatch(jobs, cfg, workers, cachePath, "", &warmRecords);
    check(warm.evaluations == 0, "warm " + tag + " re-evaluated " +
                                     std::to_string(warm.evaluations) +
                                     " candidates");
    check(warm.kernels.size() == cold.kernels.size() &&
              warmRecords == coldRecords,
          "warm " + tag + " lost kernels or quarantine records");
    for (size_t i = 0; i < cold.kernels.size() && i < warm.kernels.size();
         ++i) {
      const auto& c = cold.kernels[i];
      const auto& w = warm.kernels[i];
      check(c.result.ok == w.result.ok && c.quarantined == w.quarantined &&
                c.result.error == w.result.error &&
                c.result.bestCycles == w.result.bestCycles &&
                c.result.evaluations == w.result.evaluations &&
                opt::formatTuningSpec(c.result.best) ==
                    opt::formatTuningSpec(w.result.best) &&
                sameFaults(c.faults, w.faults),
            "warm " + tag + " diverged on " + c.name);
    }

    t.addRow(row("cold " + tag, cold));
    t.addRow(row("warm " + tag, warm));

    std::printf("%s per-kernel faults:\n", tag.c_str());
    for (const auto& k : cold.kernels)
      if (k.faults.total() > 0)
        std::printf("  %-8s %d timeouts, %d crashes, %d tester fails%s\n",
                    k.name.c_str(), k.faults.timeouts, k.faults.crashes,
                    k.faults.testerFails,
                    k.quarantined ? " (quarantined)" : "");
    std::printf("\n");
    std::remove(cachePath.c_str());
  }
  std::fputs(t.str().c_str(), stdout);

  if (failures == 0) {
    std::printf("\nall recovery checks passed: no kernel was lost under "
                "injected faults,\nwarm replay matched every cold outcome "
                "with zero fresh evaluations\n");
    return 0;
  }
  std::fprintf(stderr, "\n%d recovery check(s) failed\n", failures);
  return 1;
}
