// The evaluation path behind one API.
//
//  * EvalRequest — the single argument all evaluation entry points consume
//    (evaluateCandidate here, guardedEvaluateCandidate in
//    search/faultguard.h): a pipeline, a candidate, and an optional fault
//    injector with the evaluation index claimed from it.
//
//  * EvalPipeline — a per-kernel object owning the front-end products
//    (lowering, analysis), the pristine operand templates, the shared
//    differential-tester reference, and one memo: a prefix memo keyed on
//    the TuningSpec with prefetch distances canonicalized out (content
//    hash via support/hash.h), so candidates that differ ONLY in prefetch
//    distances — the largest line-search dimension — are derived by
//    patching the Pref displacements of a previously compiled sibling
//    instead of re-running the whole pass stack.  The patched artifact is
//    byte-identical to a from-scratch compile (tests/evalpipeline_test.cpp
//    holds this).
//
//    The pipeline does not memoize whole evaluations: the orchestrator's
//    EvalCache (search/evalcache.h) sits in front of every evaluation and
//    is the one record of a candidate's result, so the same point is never
//    handed to the pipeline twice in one search.
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

/// Everything one candidate evaluation needs: the kernel's pipeline (which
/// must outlive the call), the candidate, and for the guarded path an
/// optional fault injector with the evaluation index claimed from it
/// (FaultInjector::nextIndex, on the thread that orders the evaluations).
struct EvalRequest {
  EvalPipeline* pipeline = nullptr;
  opt::TuningParams params;
  const FaultInjector* injector = nullptr;
  uint64_t faultIndex = 0;
};

/// One compiled candidate: the compiler output plus its decoded execution
/// form and a memoized tester verdict (the tester is a pure function of the
/// compiled code, so a prefix-memo base and the siblings patched from it
/// are verified once).
struct CompiledCandidate {
  fko::CompileResult compiled;
  sim::DecodedFunction decoded;  ///< populated when compiled.ok && predecode
  /// -1 unknown, 0 failed, 1 passed.  Mutable because candidates are
  /// shared const — guarded by the pipeline lock.
  mutable int testerVerdict = -1;
};

/// Per-kernel evaluation state: owns the source text, the front-end products
/// (lowered once, analyzed once), and the cross-candidate prefix memo.
/// Thread safe: worker threads share one pipeline per kernel.
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

  /// Compile the candidate for `params`: prefetch-distance patching of a
  /// compiled sibling when the prefix memo holds one (the sibling itself
  /// when the distances are equal), else a full compile.  Never returns
  /// null; !result->compiled.ok reports the compile error.
  [[nodiscard]] std::shared_ptr<const CompiledCandidate> compile(
      const opt::TuningParams& params);

  /// A ready-to-evaluate request against this pipeline.
  [[nodiscard]] EvalRequest request(const opt::TuningParams& params) {
    return {this, params, nullptr, 0};
  }

  /// Memoized differential/reference tester verdict for a compiled
  /// candidate (keyed by the candidate object; runs at config.testerN, on
  /// the candidate's decoded form when it has one).  Without a KernelSpec,
  /// every candidate is checked against one unoptimized reference run,
  /// built on first use and shared.
  [[nodiscard]] bool testerPasses(
      const std::shared_ptr<const CompiledCandidate>& cand);

  /// The differential tester's unoptimized reference at config.testerN
  /// (what testerPasses checks spec-less candidates against), built once
  /// under the pipeline lock and immutable afterwards.
  [[nodiscard]] const fko::DiffReference& testerReference();

  /// Pristine timing operands for (spec, config.n, config.seed), generated
  /// once and cloned per run (null when the pipeline checks
  /// differentially).  Immutable after creation.
  [[nodiscard]] const kernels::KernelData* dataTemplate();
  /// Generic-path analogue, for pipelines without a KernelSpec.
  [[nodiscard]] const fko::GenericData* genericTemplate();

  struct Stats {
    uint64_t fullCompiles = 0;   ///< complete pass-stack runs
    uint64_t prefixPatches = 0;  ///< candidates derived by Pref patching
    uint64_t memoHits = 0;       ///< prefix-memo hits returning the base
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
  std::unordered_map<std::string, PrefixEntry> prefix_;
  std::unique_ptr<kernels::KernelData> dataTmpl_;  ///< built once under mu_
  std::unique_ptr<fko::GenericData> genTmpl_;      ///< built once under mu_
  std::unique_ptr<fko::DiffReference> diffRef_;    ///< built once under mu_
  Stats stats_;
};

/// Compile + test + time one candidate through its pipeline's prefix memo
/// and tester verdicts.  A pure function of its request (the simulator
/// is deterministic and side-effect-free), so it is safe to call
/// concurrently from worker threads.
[[nodiscard]] EvalOutcome evaluateCandidate(const EvalRequest& req);

}  // namespace ifko::search
