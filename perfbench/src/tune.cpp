// The batch-tuning workloads: Orchestrator::tuneAll, the engine behind
// `ifko tune-all`, over the shipped kernels_hil directory.
//
//   tune_l1_inl2   compile-bound and serial: the full line search over the
//                  20 Level-1 kernels on P4E and Opteron, in-L2 N=1024,
//                  jobs=1.
//   tune_all_ooc   simulator-bound and parallel: the smoke-grid search over
//                  all 24 kernels on P4E, out-of-cache N=20000, jobs=nproc.
//
// Every repetition starts from a fresh on-disk EvalCache.  The seed only
// permutes the kernel order: each kernel's search is independent, so the
// winners (held to a golden snapshot) never depend on it.
#include <algorithm>
#include <chrono>
#include <map>
#include <filesystem>
#include <memory>
#include <optional>

#include "arch/machine.h"
#include "bench.h"
#include "opt/params.h"
#include "replay.h"
#include "search/orchestrator.h"
#include "stats.h"
#include "support/str.h"

namespace perfbench {

using namespace ifko;

namespace {

constexpr size_t kSetupSamples = 101;
/// Set-ups measured after each repetition, so the set-up samples span the
/// run as the repetitions do rather than one moment at its end.
constexpr size_t kSetupsPerRep = 20;
/// Percentile of the pooled kernel tune times reported as latency_tail_ms.
constexpr double kTailLevel = 90.0;

struct TuneWorkload {
  bool level1Only = false;
  std::vector<arch::MachineConfig> machines;
  search::SearchConfig config;
  int jobs = 1;
  /// Keeps kTailSupport pooled kernel tune times beyond kTailLevel.
  int minReps = 1;
};

std::optional<TuneWorkload> describe(const std::string& name) {
  TuneWorkload w;
  if (name == "tune_l1_inl2") {
    w.level1Only = true;
    w.machines = {arch::p4e(), arch::opteron()};
    w.config.n = 1024;
    w.config.context = sim::TimeContext::InL2;
    w.minReps = 3;  // 3 x 40 kernel tunes: 12 beyond p90
  } else if (name == "tune_all_ooc") {
    w.machines = {arch::p4e()};
    w.config = search::SearchConfig::smoke();
    w.config.n = 20000;
    w.config.context = sim::TimeContext::OutOfCache;
    w.jobs = hostThreads();
    w.minReps = 5;  // 5 x 24 kernel tunes: 12 beyond p90
  } else {
    return std::nullopt;
  }
  return w;
}

bool isLevel2(const std::string& kernel) {
  auto endsWith = [&](std::string_view tail) {
    return kernel.size() >= tail.size() &&
           kernel.compare(kernel.size() - tail.size(), tail.size(), tail) == 0;
  };
  return endsWith("gemv") || endsWith("ger");
}

struct KernelResult {
  std::string machine;
  search::KernelOutcome outcome;
};

struct Rep {
  double setupS = 0.0;
  double wallS = 0.0;
  double cpuS = 0.0;
  int64_t faults = 0;  ///< minor page faults during the batch
  int evaluations = 0;
  std::vector<KernelResult> kernels;
};

struct Prepared {
  std::vector<search::KernelJob> jobs;
  std::vector<std::unique_ptr<search::Orchestrator>> orchs;
  double seconds = 0.0;
};

/// Set-up: load the kernels and open one orchestrator per machine on a
/// fresh on-disk cache.
Prepared setUp(const TuneWorkload& w, const Options& o, int jobs,
               const std::string& tracePath, Outcome& out) {
  Prepared p;
  const auto t0 = std::chrono::steady_clock::now();
  std::string err;
  p.jobs = search::loadKernelDir("kernels_hil", &err);
  if (p.jobs.empty()) out.fail("kernels_hil: " + err);
  if (w.level1Only)
    std::erase_if(p.jobs, [](const search::KernelJob& j) {
      return isLevel2(j.name);
    });
  SplitMix64 rng(o.seed);
  seededShuffle(p.jobs, rng);

  for (const arch::MachineConfig& m : w.machines) {
    search::OrchestratorConfig oc;
    oc.search = w.config;
    oc.search.jobs = jobs;
    oc.cachePath = o.workDir + "/" + m.name + ".cache.jsonl";
    oc.tracePath = tracePath;
    std::filesystem::remove(oc.cachePath);
    p.orchs.push_back(std::make_unique<search::Orchestrator>(m, oc, &err));
    if (!err.empty()) out.fail("orchestrator: " + err);
  }
  p.seconds = since(t0);
  return p;
}

/// One repetition: set-up, then the timed tuneAll on each machine.
Rep runRep(const TuneWorkload& w, const Options& o, int jobs,
           const std::string& tracePath, Outcome& out) {
  Prepared p = setUp(w, o, jobs, tracePath, out);
  Rep rep;
  rep.setupS = p.seconds;
  const auto t1 = std::chrono::steady_clock::now();
  const double cpu0 = cpuSeconds();
  const int64_t faults0 = minorFaults();
  for (size_t i = 0; i < p.orchs.size(); ++i) {
    search::BatchOutcome batch = p.orchs[i]->tuneAll(p.jobs);
    rep.evaluations += batch.evaluations;
    for (search::KernelOutcome& k : batch.kernels)
      rep.kernels.push_back({w.machines[i].name, std::move(k)});
  }
  rep.wallS = since(t1);
  rep.cpuS = cpuSeconds() - cpu0;
  rep.faults = minorFaults() - faults0;
  return rep;
}

Golden::Fields kernelFields(const search::KernelOutcome& k) {
  const search::TuneResult& r = k.result;
  return {{"ok", r.ok ? "true" : "false"},
          {"params", opt::formatTuningSpec(r.best)},
          {"default_cycles", std::to_string(r.defaultCycles)},
          {"best_cycles", std::to_string(r.bestCycles)},
          {"evaluations", std::to_string(r.evaluations)},
          {"proposals", std::to_string(r.proposals)},
          {"cache_hits", std::to_string(k.cacheHits)},
          {"cache_misses", std::to_string(k.cacheMisses)}};
}

/// Holds every kernel of `rep` to the golden snapshot, requires every
/// kernel of the snapshot, and requires the batch's evaluation count to be
/// the snapshot's.
void checkRep(const Rep& rep, Golden& golden, const Options& o, Outcome& out) {
  for (const KernelResult& k : rep.kernels) {
    out.attempt();
    if (!k.outcome.result.ok)
      out.fail(k.machine + "|" + k.outcome.name + ": " +
               k.outcome.result.error);
    golden.check(k.machine + "|" + k.outcome.name, kernelFields(k.outcome),
                 o.writeGolden, out);
  }
  golden.requireVisited({"totals"}, o.writeGolden, out);
  const int64_t want = golden.sum("evaluations", {"totals"});
  if (!o.writeGolden && rep.evaluations != want)
    out.fail("batch ran " + std::to_string(rep.evaluations) +
             " evaluations, golden snapshot says " + std::to_string(want));
}

double speedupGeo(const Rep& rep) {
  std::vector<double> s;
  for (const KernelResult& k : rep.kernels)
    if (k.outcome.result.ok)
      s.push_back(k.outcome.result.speedupOverDefaults());
  return geomean(s);
}

void noteRep(const char* what, const Rep& rep) {
  Outcome::note(std::string(what) + ": setup " + fmtFixed(rep.setupS, 4) +
                " s, wall " + fmtFixed(rep.wallS, 3) + " s, cpu " +
                fmtFixed(rep.cpuS, 3) + " s, " +
                std::to_string(rep.evaluations) + " evaluations, " +
                std::to_string(rep.faults) + " minor page faults");
}

void runUntraced(const TuneWorkload& w, const Options& o, Golden& golden,
                 Outcome& out) {
  std::vector<double> setup;
  std::vector<double> wall;
  std::vector<double> kernelMs;
  std::map<std::string, std::vector<double>> perKernelMs;
  double geo = 0.0;
  int evaluations = 0;
  const auto t0 = std::chrono::steady_clock::now();
  int reps = 0;
  while (reps < w.minReps || since(t0) + 0.5 * wall.back() < o.seconds) {
    const Rep rep = runRep(w, o, w.jobs, "", out);
    checkRep(rep, golden, o, out);
    noteRep("rep", rep);
    setup.push_back(rep.setupS);
    for (size_t i = 1; i < kSetupsPerRep; ++i)
      setup.push_back(setUp(w, o, w.jobs, "", out).seconds);
    wall.push_back(rep.wallS);
    for (const KernelResult& k : rep.kernels) {
      kernelMs.push_back(1000.0 * k.outcome.seconds);
      perKernelMs[k.machine + "|" + k.outcome.name].push_back(
          1000.0 * k.outcome.seconds);
    }
    geo = speedupGeo(rep);
    evaluations = rep.evaluations;  // the same every rep (golden-checked)
    ++reps;
  }
  // Set-up takes well under a millisecond; many samples steady its median.
  // Top up when few repetitions fit.
  while (setup.size() < kSetupSamples)
    setup.push_back(setUp(w, o, w.jobs, "", out).seconds);
  if (!tailSupported(kTailLevel, kernelMs.size()))
    out.fail("too few kernel tunes for p" + fmtFixed(kTailLevel, 0));
  Outcome::noteTiming("kernel tune", "ms", kernelMs);
  Outcome::noteTiming("set-up", "s", setup);
  out.set("setup_s", median(setup), "s");
  out.set("peak_rss_mb", peakRssMb(), "MB");
  const double wallS = median(wall);
  out.set("wall_s", wallS, "s");
  out.set("speedup_geo", geo, "x");
  // The median of each kernel's own median: a rep slowed by the host moves
  // no kernel's median, where it would shift a pooled order statistic.
  std::vector<double> kernelMedians;
  for (const auto& [kernel, ms] : perKernelMs)
    kernelMedians.push_back(median(ms));
  out.set("latency_p50_ms", median(kernelMedians), "ms");
  out.set("latency_tail_ms", percentile(kernelMs, kTailLevel), "ms");
  out.set("throughput_per_s", evaluations / wallS, "1/s");
}

void runTraced(const TuneWorkload& w, const Options& o, Golden& golden,
               Outcome& out) {
  const Rep untraced = runRep(w, o, w.jobs, "", out);
  noteRep("untraced", untraced);
  checkRep(untraced, golden, o, out);

  const std::string tracePath = o.workDir + "/orchestrator.trace.jsonl";
  std::filesystem::remove(tracePath);
  const Rep traced = runRep(w, o, w.jobs, tracePath, out);
  noteRep("traced", traced);
  checkRep(traced, golden, o, out);

  LayerContext ctx;
  ctx.jobs = w.jobs;
  ctx.untracedWall = untraced.wallS;
  ctx.tracedWall = traced.wallS;
  if (w.jobs > 1) {
    // Determinism cross-check: one worker must reproduce every winner,
    // cycle count and cache count of the parallel run exactly.
    const Rep serial = runRep(w, o, 1, "", out);
    noteRep("serial (jobs=1)", serial);
    checkRep(serial, golden, o, out);
    for (size_t i = 0; i < serial.kernels.size(); ++i)
      if (kernelFields(serial.kernels[i].outcome) !=
          kernelFields(traced.kernels[i].outcome))
        out.fail(serial.kernels[i].outcome.name +
                 ": jobs=1 and jobs=" + std::to_string(w.jobs) + " differ");
    ctx.parallelSpeedup = serial.wallS / untraced.wallS;
  }

  ReplayInput in;
  in.tracePath = tracePath;
  std::string err;
  for (search::KernelJob& j :
       search::loadKernelDir("kernels_hil", &err))
    in.kernels[j.name] = {std::move(j.hilSource), nullptr};
  in.config = w.config;
  in.workDir = o.workDir;
  SpanRecorder rec;
  ctx.replay = replayTrace(in, rec, out);
  ctx.replayWall = ctx.replay.wallSeconds;

  golden.check("totals", countFields(ctx.replay.counts), o.writeGolden, out);
  setLayerMetrics(rec.spans(), ctx, out);
  if (!o.spansPath.empty() && !rec.writeJsonl(o.spansPath))
    out.fail("cannot write spans to " + o.spansPath);
}

}  // namespace

bool isTuneWorkload(const std::string& name) {
  return describe(name).has_value();
}

Outcome runTuneWorkload(const Options& o) {
  Outcome out;
  const TuneWorkload w = *describe(o.workload);
  Golden golden;
  std::string err;
  // --write-golden updates the snapshot in place (a missing one is fine).
  if (!golden.load(o.goldenPath, &err) && !o.writeGolden) out.fail(err);
  if (o.trace)
    runTraced(w, o, golden, out);
  else
    runUntraced(w, o, golden, out);
  if (o.writeGolden && !golden.save(o.goldenPath))
    out.fail("cannot write " + o.goldenPath);
  return out;
}

}  // namespace perfbench
