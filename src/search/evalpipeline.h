// The evaluation fast path behind one API.
//
// Every probe of the transform space used to re-thread seven loose
// parameters (hilSource/lowered/spec/analysis/machine/config/params) through
// three entry points, and paid the full compile + interpret + time tax per
// candidate.  This header gives the evaluation state one home:
//
//  * EvalRequest — the single argument struct all evaluation entry points
//    consume (evaluateCandidate here, guardedEvaluateCandidate in
//    search/faultguard.h).  The legacy loose-parameter overloads survive one
//    release as deprecated shims.
//
//  * EvalPipeline — a per-kernel object owning the front-end products
//    (lowering, analysis) and two memos shared across candidates:
//      - a compile memo keyed on the canonical TuningSpec string, holding
//        the compiled function plus its pre-decoded execution form
//        (sim/decode.h) so repeated probes of the same point never
//        recompile or re-decode;
//      - a prefix memo keyed on the TuningSpec with prefetch distances
//        canonicalized out (content hash via support/hash.h), so candidates
//        that differ ONLY in prefetch distances — the largest line-search
//        dimension — are derived by patching the Pref displacements of a
//        previously compiled sibling instead of re-running the whole pass
//        stack.  The patched artifact is byte-identical to a from-scratch
//        compile (tests/evalpipeline_test.cpp holds this).
//
//  * Screen-then-confirm policy helpers (SearchConfig::screenN): early
//    rounds time a sub-sampled N and only candidates near the batch's best
//    screen time get the full-size confirmation run; the rest score
//    EvalOutcome::Status::ScreenedOut.  Committed winners always come from
//    full-size runs.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "arch/machine.h"
#include "fko/compiler.h"
#include "fko/harness.h"
#include "kernels/registry.h"
#include "kernels/tester.h"
#include "opt/params.h"
#include "search/linesearch.h"
#include "sim/decode.h"

namespace ifko::search {

class FaultInjector;  // search/faultguard.h
class EvalPipeline;

/// Everything one candidate evaluation needs.  The referenced objects must
/// outlive the call; `pipeline` (optional) supplies the decode/compile
/// memos, `injector` (optional) drives fault injection on the guarded path,
/// and `timeN` (0 = config->n) overrides the timed problem size for
/// screening runs.
struct EvalRequest {
  const std::string* hilSource = nullptr;
  const fko::LoweredKernel* lowered = nullptr;
  const kernels::KernelSpec* spec = nullptr;  ///< null => differential tester
  const fko::AnalysisReport* analysis = nullptr;
  const arch::MachineConfig* machine = nullptr;
  const SearchConfig* config = nullptr;
  opt::TuningParams params;
  EvalPipeline* pipeline = nullptr;
  FaultInjector* injector = nullptr;
  int64_t timeN = 0;
};

/// One compiled candidate held by the pipeline's memos: the compiler output
/// plus its pre-decoded execution form and a memoized tester verdict (the
/// tester is a pure function of the compiled code, so screen + confirm runs
/// of the same candidate verify it once).
struct CompiledCandidate {
  fko::CompileResult compiled;
  sim::DecodedFunction decoded;  ///< populated when compiled.ok && predecode
  /// -1 unknown, 0 failed, 1 passed.  The tester is deterministic on the
  /// compiled code, so screen + confirm runs share one verdict; mutable
  /// because candidates are shared const — guarded by the pipeline lock.
  mutable int testerVerdict = -1;
};

/// Per-kernel evaluation state: owns the source text, the front-end products
/// (lowered once, analyzed once), and the cross-candidate memos.  Thread
/// safe: worker threads share one pipeline per kernel.
class EvalPipeline {
 public:
  /// Lowers and analyzes `hilSource` once.  `machine` and `config` must
  /// outlive the pipeline; `spec` may be null (differential checking).
  EvalPipeline(std::string hilSource, const kernels::KernelSpec* spec,
               const arch::MachineConfig& machine, const SearchConfig& config);

  [[nodiscard]] const std::string& source() const { return source_; }
  [[nodiscard]] const kernels::KernelSpec* spec() const { return spec_; }
  [[nodiscard]] const arch::MachineConfig& machine() const { return machine_; }
  [[nodiscard]] const SearchConfig& config() const { return config_; }
  [[nodiscard]] const fko::LoweredKernel& lowered() const { return lowered_; }
  [[nodiscard]] const fko::AnalysisReport& analysis() const {
    return analysis_;
  }
  /// max over the analysis arrays (sizes generic-timer operands).
  [[nodiscard]] int64_t maxStrideElems() const { return maxStrideElems_; }

  /// Compile (or reuse) the candidate for `params`: compile memo first, then
  /// prefetch-distance patching of a compiled sibling, then a full compile.
  /// Never returns null; !result->compiled.ok reports the compile error.
  [[nodiscard]] std::shared_ptr<const CompiledCandidate> compile(
      const opt::TuningParams& params);

  /// A ready-to-evaluate request against this pipeline.
  [[nodiscard]] EvalRequest request(const opt::TuningParams& params) {
    EvalRequest req;
    req.hilSource = &source_;
    req.lowered = &lowered_;
    req.spec = spec_;
    req.analysis = &analysis_;
    req.machine = &machine_;
    req.config = &config_;
    req.params = params;
    req.pipeline = this;
    return req;
  }

  /// Memoized differential/reference tester verdict for a compiled
  /// candidate (keyed by the candidate object; runs at config.testerN).
  /// Without a KernelSpec, every candidate is checked against one
  /// unoptimized reference run, built on first use and shared.
  [[nodiscard]] bool testerPasses(
      const std::shared_ptr<const CompiledCandidate>& cand);

  /// The differential tester's unoptimized reference at config.testerN
  /// (what testerPasses checks spec-less candidates against), built once
  /// under the pipeline lock and immutable afterwards.
  [[nodiscard]] const fko::DiffReference& testerReference();

  /// Pristine timing operands for (spec, config.n, config.seed), generated
  /// once and cloned per run (config.reuseKernelData; null when off or when
  /// the pipeline checks differentially).  Immutable after creation.
  [[nodiscard]] const kernels::KernelData* dataTemplate();
  /// Generic-path analogue, for pipelines without a KernelSpec.
  [[nodiscard]] const fko::GenericData* genericTemplate();

  struct Stats {
    uint64_t fullCompiles = 0;   ///< complete pass-stack runs
    uint64_t prefixPatches = 0;  ///< candidates derived by Pref patching
    uint64_t memoHits = 0;       ///< compile-memo hits
    uint64_t testerRuns = 0;     ///< non-memoized tester executions
    uint64_t referenceBuilds = 0;  ///< differential references built (0/1)
  };
  [[nodiscard]] Stats stats() const;

 private:
  [[nodiscard]] std::shared_ptr<const CompiledCandidate> build(
      const opt::TuningParams& params);

  std::string source_;
  const kernels::KernelSpec* spec_;
  const arch::MachineConfig& machine_;
  const SearchConfig& config_;
  fko::LoweredKernel lowered_;
  fko::AnalysisReport analysis_;
  int64_t maxStrideElems_ = 1;

  struct PrefixEntry {
    std::shared_ptr<const CompiledCandidate> base;
    opt::TuningParams params;  ///< the params `base` was compiled with
  };

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const CompiledCandidate>>
      memo_;
  std::unordered_map<std::string, PrefixEntry> prefix_;
  std::unique_ptr<kernels::KernelData> dataTmpl_;  ///< built once under mu_
  std::unique_ptr<fko::GenericData> genTmpl_;      ///< built once under mu_
  std::unique_ptr<fko::DiffReference> diffRef_;    ///< built once under mu_
  Stats stats_;
};

/// Compile + test + time one candidate (EvalRequest form; see linesearch.h
/// for the deprecated loose-parameter shim).  With a pipeline attached the
/// compile/decode/tester memos are consulted; without one, each call pays
/// the full cost, exactly like the legacy path.
[[nodiscard]] EvalOutcome evaluateCandidate(const EvalRequest& req);

/// Whether screen-then-confirm applies to a cohort of `cohort` cache-missing
/// candidates under `config` (needs screenN on, 2*screenN within n, and a
/// cohort of at least kScreenMinCohort).
[[nodiscard]] bool screeningApplies(const SearchConfig& config, size_t cohort);

/// The screening metric from two truncated prefix runs of the same
/// candidate: the cycles of iterations (screenN, 2*screenN] — i.e.
/// tail.cycles - head.cycles.  Subtracting the shared prefix cancels the
/// cold-start transient (compulsory misses, prefetch ramp-up, pipeline
/// fill), leaving the steady-state per-iteration rate that dominates the
/// full-size ranking; ranking raw prefixes instead demonstrably inverts the
/// unroll dimension.  Both outcomes must be usable; the result carries the
/// tail's status/counters and the combined attempt count.
[[nodiscard]] EvalOutcome deltaScreen(const EvalOutcome& head,
                                      const EvalOutcome& tail);

/// Given the cohort's screen outcomes, marks which candidates advance to
/// the full-size confirmation run: usable outcomes within
/// config.screenMargin of the cohort's best screen time — and, when the
/// caller knows the search incumbent's screen-size cycles
/// (`incumbentScreen`, 0 = unknown), of that too.  Only would-be incumbents
/// pay for a full-size run; a candidate that cannot beat the current best
/// needs no accurate full-size number, because the search only ever commits
/// strict improvements.  Failed screens never advance (their failure is
/// already the final verdict); if no screen is usable the vector is
/// all-false.
[[nodiscard]] std::vector<char> screenSurvivors(
    const SearchConfig& config, const std::vector<EvalOutcome>& screens,
    uint64_t incumbentScreen = 0);

}  // namespace ifko::search
