// The iFKO search drivers (paper Section 2.3): a modified line search over
// the fundamental transform parameters.
//
// Defaults (the paper's "intelligent start values", with L the line size of
// the first prefetchable cache and L_e the number of elements of the loop's
// type in such a line — counted in SIMD vectors when vectorization applies):
//   SV = Yes, WNT = No, PF = (prefetchnta, 2*L), UR = L_e, AE = No.
//
// The search then sweeps one dimension at a time in the order the paper's
// Figure 7 reports contributions — WNT, PF distance, PF instruction, UR,
// AE — holding the rest fixed, and finishes with a restricted 2-D
// refinement of the strongly-interacting (UR, AE) pair.  Every candidate is
// timed on the simulated machine and checked by the tester ("unnecessary in
// theory, but useful in practice").
//
// The sweep itself is the line-search strategy (strategy/strategy.h), run
// by search::Orchestrator's strategy loop: each dimension hands its
// mutually independent candidates over as one batch, which is what lets
// the orchestrator fan evaluations out to a worker thread pool, memoize
// them in a persistent cache, and trace them — without the search logic
// knowing.  Batching does not change the result: the committed point is
// the earliest strict improvement, exactly what a serial scan picks.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "arch/machine.h"
#include "fko/compiler.h"
#include "kernels/registry.h"
#include "opt/params.h"
#include "search/counters.h"
#include "sim/timer.h"

namespace ifko::search {

struct SearchConfig {
  int64_t n = 80000;  ///< problem size to time (paper: 80000 / 1024)
  sim::TimeContext context = sim::TimeContext::OutOfCache;
  uint64_t seed = 42;
  /// Verify each candidate's output at this length (0 disables the tester).
  int64_t testerN = 256;
  /// Worker threads for candidate evaluation under search::Orchestrator
  /// (tuneKernel and tuneSource always use one).  Any value produces
  /// identical results; it only changes turnaround.
  int jobs = 1;
  /// Also search the extension transforms (block fetch, CISC indexing) the
  /// paper lists as planned work.  Off by default so Table 3 matches the
  /// evaluated FKO.
  bool searchExtensions = false;

  /// Decode each compiled candidate once, when the pipeline compiles it
  /// (sim/decode.h), so its tester and timing runs share the decoded form.
  /// Off, the timed call decodes by itself.  Same cycles either way.
  bool predecode = true;

  // --- fault isolation (search/faultguard.h) -------------------------------
  /// Per-candidate deadline in "milliseconds", converted at a fixed
  /// deterministic rate into an interpreter-step and simulated-cycle budget
  /// (sim/budget.h) so the verdict is reproducible on any host and any
  /// --jobs.  0 disables the deadline.
  int64_t evalTimeoutMs = 0;

  /// Named constructor for smoke-test scale: reduced sweep grids, small
  /// problem size (4096) and tester length (64).
  [[nodiscard]] static SearchConfig smoke() {
    SearchConfig c;
    c.reducedGrids_ = true;
    c.n = 4096;
    c.testerN = 64;
    return c;
  }

  /// Whether the search sweeps the reduced smoke-test grids (set only by
  /// smoke()).
  [[nodiscard]] bool reducedGrids() const { return reducedGrids_; }

 private:
  bool reducedGrids_ = false;
};

/// Shared evaluation budget, enforced by the orchestrator's strategy loop
/// (strategy/strategy.h describes its semantics).
struct Budget {
  int maxEvaluations = 0;  ///< observed-candidate cap; 0 = unlimited
  uint64_t maxCycles = 0;  ///< simulated-cycle cap; 0 = unlimited
  uint64_t seed = 1;       ///< PRNG seed for the stochastic strategies

  [[nodiscard]] bool unlimited() const {
    return maxEvaluations == 0 && maxCycles == 0;
  }
};

/// The search policies (strategy/strategy.h); flag spellings via
/// strategyName.
enum class StrategyKind : uint8_t {
  Line,
  HillClimb,
  Evolve,
  Attribution,
};

/// One completed line-search dimension, for the Figure 7 ledger.
struct DimensionResult {
  std::string name;      ///< "WNT", "PF DST", "PF INS", "UR", "AE", "UR*AE"
  uint64_t cyclesAfter;  ///< best cycles once this dimension was tuned

  friend bool operator==(const DimensionResult&,
                         const DimensionResult&) = default;
};

/// One point of the best-so-far curve: after `proposals` observed
/// candidates, the best known time was `cycles`.
struct FrontierPoint {
  int proposals = 0;
  uint64_t cycles = 0;

  friend bool operator==(const FrontierPoint&, const FrontierPoint&) = default;
};

struct TuneResult {
  bool ok = false;
  std::string error;
  opt::TuningParams defaults;  ///< FKO's statically chosen parameters
  opt::TuningParams best;
  uint64_t defaultCycles = 0;  ///< "FKO": no empirical search
  uint64_t bestCycles = 0;     ///< "ifko": after the search
  std::vector<DimensionResult> ledger;
  /// Distinct candidates the search observed, cached or not: the same warm
  /// or cold (evaluations actually run are a host fact, kept beside the
  /// result in KernelOutcome::evaluationsRun).
  int evaluations = 0;
  /// Candidates the search observed (including DEFAULTS; cached repeats
  /// count — this is what a Budget meters) and the best-so-far improvement
  /// curve over them.
  int proposals = 0;
  std::vector<FrontierPoint> frontier;
  fko::AnalysisReport analysis;
  /// The endpoints' counters, taken from the outcomes the search observed
  /// (evaluated or replayed from the cache), so no caller re-evaluates an
  /// endpoint to explain or record it.
  std::optional<EvalCounters> defaultCounters;
  std::optional<EvalCounters> bestCounters;

  [[nodiscard]] double speedupOverDefaults() const {
    return bestCycles == 0 ? 0.0
                           : static_cast<double>(defaultCycles) /
                                 static_cast<double>(bestCycles);
  }
};

/// Outcome of evaluating one candidate parameter set.  cycles == 0 means
/// the candidate is unusable; `status` records which way it failed:
///
///   Timed        compiled, passed the tester, timed (cycles != 0)
///   CompileFail  the transformed kernel did not compile
///   TesterFail   compiled but computed a wrong answer (paper §3: the
///                tester rejects transformations that break correctness)
///   Timeout      exceeded its cooperative step/cycle deadline (sim/budget.h)
///   Crash        the evaluation threw — a simulator machine fault or an
///                injected fault, contained by search/faultguard.h
///
/// CompileFail/TesterFail are rejections; Timeout/Crash are the "hard"
/// failures the orchestrator's quarantine counts.  All of them are
/// deterministic: the same candidate fails the same way every time.
struct EvalOutcome {
  enum class Status : uint8_t {
    Timed, CompileFail, TesterFail, Timeout, Crash
  };
  uint64_t cycles = 0;
  Status status = Status::Timed;
  bool fromCache = false;  ///< replayed from the cache, not re-evaluated
  /// Observability counters for a timed candidate (attribution, memory,
  /// compile); absent for failures.
  std::optional<EvalCounters> counters;

  [[nodiscard]] bool usable() const {
    return status == Status::Timed && cycles != 0;
  }
  /// Timeout or Crash: the evaluation never finished; what the quarantine
  /// counts.
  [[nodiscard]] bool hardFailure() const {
    return status == Status::Timeout || status == Status::Crash;
  }
};

/// Trace/cache name: "timed", "compile_fail", "tester_fail", "timeout",
/// "crash".
[[nodiscard]] std::string_view evalStatusName(EvalOutcome::Status s);
/// Inverse of evalStatusName; nullopt for unknown strings.
[[nodiscard]] std::optional<EvalOutcome::Status> parseEvalStatus(
    std::string_view name);

/// FKO's default parameters for this kernel/machine (no search).
[[nodiscard]] opt::TuningParams fkoDefaults(const fko::AnalysisReport& report,
                                            const arch::MachineConfig& machine);

/// Runs the iterative search on a surveyed BLAS kernel (candidates are
/// checked against the hand-written reference implementations) on an
/// in-memory search::Orchestrator with one worker: no cache file, no
/// trace, no quarantine.  The defaults are the paper's search — the line
/// search with an unlimited budget.
[[nodiscard]] TuneResult tuneKernel(const kernels::KernelSpec& spec,
                                    const arch::MachineConfig& machine,
                                    const SearchConfig& config,
                                    StrategyKind kind = StrategyKind::Line,
                                    const Budget& budget = {});

/// Runs the iterative search on an arbitrary HIL kernel.  Candidates are
/// checked differentially against the unoptimized lowering of the same
/// source (fko::testAgainstUnoptimized), so no reference implementation is
/// required — the "generalize it enough to tune almost any floating point
/// kernel" goal of the paper.  Same orchestrator as tuneKernel.
[[nodiscard]] TuneResult tuneSource(const std::string& hilSource,
                                    const arch::MachineConfig& machine,
                                    const SearchConfig& config,
                                    StrategyKind kind = StrategyKind::Line,
                                    const Budget& budget = {});

/// Times one parameter set (compile + simulate).  Exposed for the
/// benchmarks' fixed-parameter runs; returns 0 cycles on compile failure.
[[nodiscard]] uint64_t timeParams(const kernels::KernelSpec& spec,
                                  const arch::MachineConfig& machine,
                                  const opt::TuningParams& params,
                                  const SearchConfig& config);

/// Table 3 style row: "Y:N  nta:1024  none:0  4:2".  The prefetch cells are
/// rendered by opt::formatPref — the same serialization the TuningSpec
/// grammar, the evaluation cache key, and the trace events use.
[[nodiscard]] std::vector<std::string> paramsRow(
    const opt::TuningParams& params, const fko::AnalysisReport& analysis);

}  // namespace ifko::search
