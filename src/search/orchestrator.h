// Parallel batch-tuning orchestrator: the search loop and its evaluator.
//
// tune() runs one kernel's search: it asks the configured strategy
// (strategy/strategy.h) for batches of candidates, evaluates them, reports
// each outcome back in proposal order, tracks the best-so-far frontier and
// enforces the Budget.  The strategy only decides what to try next.
//
// The paper's empirical search pays a turnaround tax — hundreds of
// compile+test+time evaluations per kernel, serial in the original iFKO.
// The simulated evaluation is deterministic and side-effect-free (each
// candidate gets its own compile pipeline and sim::Memory), so independent
// candidates can fan out to a worker thread pool, every result can be
// memoized in a persistent content-addressed cache (evalcache.h), and the
// whole search can emit a structured JSONL event trace — none of which
// changes the chosen parameters: jobs=N, warm or cold, reproduces the
// serial search bit for bit.
//
// Evaluation is fault-isolated (search/faultguard.h): every candidate runs
// through guardedEvaluateCandidate — cooperative deadline, exception
// containment — so a crashing or hanging candidate scores a structured
// failure instead of killing the batch, and a kernel whose candidates keep
// hard-failing is quarantined (skipped with a diagnostic) rather than
// poisoning the rest of the run.
//
// Each tune() builds the kernel's EvalPipeline (lowering, analysis, prefix
// memo) and drops it when the search ends.  The EvalCache is the one record
// of an evaluation that outlives a search, and the search's own outcomes
// carry the endpoints' counters (TuneResult::defaultCounters/bestCounters),
// so nothing downstream re-evaluates or rebuilds a cache key.
//
// A kernel's results (winner, cycles, ledger, evaluations = distinct
// candidates observed, failure tallies) never depend on the cache: a warm
// rerun reports exactly what the cold run did, so rerunning a killed batch
// on the same cache is its resume.  What this process paid — cache hits and
// misses, evaluations actually run, seconds — is reported beside them as
// host facts.
//
// Trace event schema (one flat JSON object per line; the trace file is
// opened in append mode, one run_start per run; see docs/TUNING.md).  The
// `evaluations` of kernel_end and batch_end count evaluations run:
//   run_start       machine, context, n, jobs, strategy, eval_timeout_ms
//   kernel_start    kernel, machine, context, n, jobs, strategy
//   dimension_start kernel, dim
//   candidate       kernel, dim, params, cycles, cache (hit|miss),
//                   verdict (pass|compile_fail|tester_fail|timeout|crash|
//                   fail)
//   dimension_end   kernel, dim, best_cycles, best_params
//   kernel_end      kernel, ok, [error, quarantined] | [default_cycles,
//                   best_cycles, best_params, speedup, evaluations,
//                   proposals], timeouts, crashes, tester_fails,
//                   compile_fails, cache_hits, cache_misses, seconds
//   batch_end       kernels, failures, quarantined, evaluations, timeouts,
//                   crashes, cache_hits, cache_misses, hit_rate, seconds
#pragma once

#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arch/machine.h"
#include "search/evalcache.h"
#include "search/evalpipeline.h"
#include "search/faultguard.h"
#include "search/linesearch.h"
#include "search/strategy/strategy.h"

namespace ifko::search {

struct OrchestratorConfig {
  /// search.jobs sizes the worker pool (values < 1 normalize to 1);
  /// search.evalTimeoutMs sets the per-candidate deadline
  /// (search/faultguard.h).
  SearchConfig search;
  std::string cachePath;  ///< persistent JSONL evaluation cache ("" = memory only)
  /// Sharded cache mode (takes precedence over cachePath): load every
  /// cache.*.jsonl shard in this directory, append new results to our own
  /// shard only (EvalCache::openDir) — the multi-process posture, where
  /// each worker owns one append-only file and merge is a later set union.
  std::string cacheDir;
  /// Shard name inside cacheDir; "" defaults to the process id, so
  /// uncoordinated workers never collide on a shard file.
  std::string cacheShard;
  std::string tracePath;  ///< JSONL event trace ("" = off); appended per run
  /// Search policy.  Every kind runs through the same strategy loop;
  /// Line with an unlimited budget is the paper's line search.
  StrategyKind strategy = StrategyKind::Line;
  Budget budget;  ///< default: unlimited, seed 1
  /// Quarantine: once a kernel accumulates this many hard failures
  /// (Timeout/Crash), its search is abandoned with a
  /// diagnostic instead of poisoning the batch.  0 = never quarantine.
  int quarantineAfter = 3;
  /// Deterministic fault injection for tests/benchmarks; empty = none.
  FaultPlan faultPlan;
};

/// Warm start: called once, right after the DEFAULTS evaluation, with its
/// outcome (counters included), so a wisdom lookup can use the kernel's own
/// attribution as the similarity probe for the performance-nearest record.
/// Returning a TuningParams makes it the "WISDOM" point.  Must be
/// deterministic (outcomes are).
using WarmStartFn =
    std::function<std::optional<opt::TuningParams>(const EvalOutcome&)>;

/// One kernel to tune.  When `spec` names a surveyed BLAS kernel its
/// hand-written reference implementation checks the candidates; otherwise
/// they are tested differentially against the unoptimized lowering.
struct KernelJob {
  std::string name;
  std::string hilSource;
  const kernels::KernelSpec* spec = nullptr;
  /// Optional warm start (e.g. a wisdom record's winner): the point it
  /// returns is evaluated right after DEFAULTS as the "WISDOM" dimension,
  /// so a previously found winner becomes the incumbent before the
  /// strategy proposes anything.  It counts against the budget, but the
  /// strategy never observes it — proposal sequences stay identical with
  /// or without a warm start; only the incumbent can differ.
  WarmStartFn warmStartProvider;
};

struct KernelOutcome {
  std::string name;
  TuneResult result;
  // Host facts: what this process paid for `result`.
  uint64_t cacheHits = 0;
  uint64_t cacheMisses = 0;
  int evaluationsRun = 0;  ///< real (uncached) compile+test+time evaluations
  double seconds = 0.0;
  /// Evaluation failures this kernel's search observed, one per distinct
  /// candidate whether or not the cache replayed it.
  FailureCounts faults;
  /// The search was abandoned by the quarantine policy; result.ok is
  /// false and result.error carries the diagnostic.
  bool quarantined = false;
};

struct BatchOutcome {
  std::vector<KernelOutcome> kernels;
  uint64_t cacheHits = 0;
  uint64_t cacheMisses = 0;
  int evaluations = 0;  ///< evaluationsRun, summed over kernels
  double wallSeconds = 0.0;
  FailureCounts faults;  ///< summed over kernels

  [[nodiscard]] double hitRate() const {
    uint64_t total = cacheHits + cacheMisses;
    return total == 0
               ? 0.0
               : static_cast<double>(cacheHits) / static_cast<double>(total);
  }
  [[nodiscard]] int failures() const {
    int n = 0;
    for (const auto& k : kernels) n += k.result.ok ? 0 : 1;
    return n;
  }
  [[nodiscard]] int quarantined() const {
    int n = 0;
    for (const auto& k : kernels) n += k.quarantined ? 1 : 0;
    return n;
  }
};

namespace detail {
class ThreadPool;
}

/// Owns the worker pool, the evaluation cache, and the trace stream for a
/// batch of tuning runs on one machine model.
class Orchestrator {
 public:
  /// Opens the cache and trace files named by `config`.  File problems are
  /// reported through *error (when given); the orchestrator stays usable
  /// with the affected feature disabled, so callers decide severity.
  Orchestrator(const arch::MachineConfig& machine, OrchestratorConfig config,
               std::string* error = nullptr);
  ~Orchestrator();
  Orchestrator(const Orchestrator&) = delete;
  Orchestrator& operator=(const Orchestrator&) = delete;

  /// Runs the configured strategy on one kernel through the parallel
  /// cached evaluator, until the strategy finishes or the budget is spent.
  [[nodiscard]] KernelOutcome tune(const KernelJob& job);

  /// Tunes every job in order (candidate-level parallelism keeps the
  /// per-kernel results independent of the batch composition).  `onKernel`
  /// (when given) runs on the orchestrator thread right after each
  /// kernel's outcome lands — the hook incremental consumers (per-kernel
  /// wisdom write-back, so a kill -9 loses at most the in-flight kernel)
  /// attach to.
  [[nodiscard]] BatchOutcome tuneAll(
      const std::vector<KernelJob>& jobs,
      const std::function<void(const KernelOutcome&)>& onKernel = {});

  [[nodiscard]] EvalCache& cache() { return cache_; }
  /// Worker-pool width after normalization (always >= 1).
  [[nodiscard]] int jobs() const { return config_.search.jobs; }

  /// Kernels the quarantine policy abandoned this run, with their tallies.
  struct QuarantineRecord {
    std::string kernel;
    FailureCounts faults;
  };
  [[nodiscard]] const std::vector<QuarantineRecord>& quarantined() const {
    return quarantined_;
  }

 private:
  void trace(const std::string& jsonLine);

  arch::MachineConfig machine_;
  OrchestratorConfig config_;
  EvalCache cache_;
  std::unique_ptr<detail::ThreadPool> pool_;
  std::FILE* trace_ = nullptr;
  FaultInjector injector_;
  std::vector<QuarantineRecord> quarantined_;

  friend class OrchestratedEvaluator;
};

/// Loads every *.hil file in `dir` as a KernelJob (name = file stem),
/// sorted by name.  Empty with *error set when the directory is missing,
/// unreadable, or holds no .hil files.
[[nodiscard]] std::vector<KernelJob> loadKernelDir(const std::string& dir,
                                                   std::string* error);

/// Deterministic registry partition for `tune-all --workers=N
/// --worker-id=K`: worker K keeps the jobs at indices i with
/// i % workers == workerId.  Every worker slicing the same (sorted) job
/// list covers it exactly once with no coordination — and because each
/// kernel's search is independent and deterministic, the union of the
/// workers' results is bit-identical to one process running the whole
/// list.
[[nodiscard]] std::vector<KernelJob> workerSlice(std::vector<KernelJob> jobs,
                                                 int workers, int workerId);

}  // namespace ifko::search
