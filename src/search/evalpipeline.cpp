#include "search/evalpipeline.h"

#include <algorithm>

#include "fko/harness.h"
#include "kernels/tester.h"
#include "support/hash.h"

namespace ifko::search {

namespace {

/// The prefix-memo key: the canonical TuningSpec with every *enabled*
/// prefetch distance replaced by a sentinel, hashed (support/hash.h).  Two
/// candidates share a key exactly when they differ only in the distances of
/// already-enabled prefetches — the one degree of freedom the compiler
/// threads through to codegen as a pure Pref displacement (the emitted
/// instruction count, placement, and every other pass decision depend on
/// the enabled set and kind, which stay in the key).
std::string prefixKey(const opt::TuningParams& params) {
  opt::TuningParams canon = params;
  for (auto& [name, pp] : canon.prefetch)
    if (pp.enabled) pp.distBytes = -1;  // out-of-grammar sentinel
  return hashHex(opt::formatTuningSpec(canon));
}

[[nodiscard]] bool hasEnabledPrefetch(const opt::TuningParams& params) {
  for (const auto& [name, pp] : params.prefetch)
    if (pp.enabled) return true;
  return false;
}

}  // namespace

EvalPipeline::EvalPipeline(std::string hilSource,
                           const kernels::KernelSpec* spec,
                           const arch::MachineConfig& machine,
                           const SearchConfig& config)
    : source_(std::move(hilSource)), spec_(spec), machine_(machine),
      config_(config), lowered_(fko::lowerKernel(source_)),
      analysis_(fko::analyzeKernel(source_, machine)) {
  for (const auto& a : analysis_.arrays)
    maxStrideElems_ = std::max(maxStrideElems_, a.strideElems);
}

std::shared_ptr<const CompiledCandidate> EvalPipeline::build(
    const opt::TuningParams& params) {
  auto cand = std::make_shared<CompiledCandidate>();
  fko::CompileOptions opts;
  opts.tuning = params;
  cand->compiled = fko::compileKernel(lowered_.fn, opts, machine_);
  if (cand->compiled.ok && config_.predecode)
    cand->decoded = sim::decodeFunction(cand->compiled.fn, machine_);
  return cand;
}

std::shared_ptr<const CompiledCandidate> EvalPipeline::compile(
    const opt::TuningParams& params) {
  const bool tryPrefix = hasEnabledPrefetch(params);
  std::string pkey;
  PrefixEntry basis;
  if (tryPrefix) {
    pkey = prefixKey(params);
    std::lock_guard<std::mutex> lock(mu_);
    auto pit = prefix_.find(pkey);
    if (pit != prefix_.end()) basis = pit->second;
  }
  if (basis.base != nullptr && basis.params == params) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.memoHits;
    return basis.base;
  }

  std::shared_ptr<const CompiledCandidate> cand;
  bool patched = false;
  if (basis.base != nullptr) {
    // Derive from the compiled sibling: copy, then shift every Pref
    // displacement by the per-array distance delta.  The decoder re-runs
    // (displacements are baked into the decoded instructions).
    auto out = std::make_shared<CompiledCandidate>();
    out->compiled = basis.base->compiled;
    for (auto& bb : out->compiled.fn.blocks) {
      for (auto& inst : bb.insts) {
        if (inst.op != ir::Op::Pref) continue;
        const auto ordinal = static_cast<size_t>(inst.imm);
        if (ordinal >= analysis_.arrays.size()) continue;
        const std::string& name = analysis_.arrays[ordinal].name;
        auto nit = params.prefetch.find(name);
        auto oit = basis.params.prefetch.find(name);
        if (nit == params.prefetch.end() || oit == basis.params.prefetch.end())
          continue;
        inst.mem.disp += nit->second.distBytes - oit->second.distBytes;
      }
    }
    if (config_.predecode)
      out->decoded = sim::decodeFunction(out->compiled.fn, machine_);
    cand = std::move(out);
    patched = true;
  } else {
    cand = build(params);
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (patched) {
    ++stats_.prefixPatches;
    // The tester verdict carries over (read under the lock that guards
    // it): prefetch hints cannot change results.
    cand->testerVerdict = basis.base->testerVerdict;
  } else {
    ++stats_.fullCompiles;
  }
  // Only a from-scratch success seeds the prefix memo: a patched artifact
  // would work too (identical bytes), but failures must never be a basis.
  if (!patched && tryPrefix && cand->compiled.ok)
    prefix_.emplace(pkey, PrefixEntry{cand, params});
  return cand;
}

bool EvalPipeline::testerPasses(
    const std::shared_ptr<const CompiledCandidate>& cand) {
  if (config_.testerN <= 0) return true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (cand->testerVerdict != -1) return cand->testerVerdict == 1;
  }
  // An untimed run: on the candidate's decoded form when it has one, else
  // on a cost-free decode made just for the tester.
  const bool hasDecoded = cand->decoded.numBlocks > 0;
  sim::DecodedFunction untimed;
  if (!hasDecoded) untimed = sim::decodeFunction(cand->compiled.fn);
  const sim::DecodedFunction& fn = hasDecoded ? cand->decoded : untimed;
  const bool pass =
      spec_ != nullptr
          ? kernels::testKernel(*spec_, fn, config_.testerN).ok
          : fko::checkAgainstReference(testerReference(), fn).ok;
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.testerRuns;
  cand->testerVerdict = pass ? 1 : 0;
  return pass;
}

const fko::DiffReference& EvalPipeline::testerReference() {
  std::lock_guard<std::mutex> lock(mu_);
  if (diffRef_ == nullptr) {
    diffRef_ = std::make_unique<fko::DiffReference>(
        fko::buildDiffReference(source_, config_.testerN));
    ++stats_.referenceBuilds;
  }
  return *diffRef_;
}

EvalPipeline::Stats EvalPipeline::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

const kernels::KernelData* EvalPipeline::dataTemplate() {
  if (spec_ == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  if (dataTmpl_ == nullptr)
    dataTmpl_ = std::make_unique<kernels::KernelData>(
        kernels::makeKernelData(*spec_, config_.n, config_.seed));
  return dataTmpl_.get();
}

const fko::GenericData* EvalPipeline::genericTemplate() {
  if (!lowered_.ok) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  if (genTmpl_ == nullptr)
    genTmpl_ = std::make_unique<fko::GenericData>(fko::makeGenericData(
        lowered_.fn.params, config_.n, config_.seed, 0.75, maxStrideElems_));
  return genTmpl_.get();
}

EvalOutcome evaluateCandidate(const EvalRequest& req) {
  EvalPipeline& pipe = *req.pipeline;
  const SearchConfig& config = pipe.config();
  const arch::MachineConfig& machine = pipe.machine();
  if (!pipe.lowered().ok) return {0, EvalOutcome::Status::CompileFail};

  const std::shared_ptr<const CompiledCandidate> cand =
      pipe.compile(req.params);
  if (!cand->compiled.ok) return {0, EvalOutcome::Status::CompileFail};
  if (!pipe.testerPasses(cand)) return {0, EvalOutcome::Status::TesterFail};

  // Without predecode the candidate holds no decoded form, and the timed
  // call decodes it here.
  const bool hasDecoded = cand->decoded.numBlocks > 0;
  sim::DecodedFunction decodedHere;
  if (!hasDecoded)
    decodedHere = sim::decodeFunction(cand->compiled.fn, machine);
  const sim::DecodedFunction& dfn = hasDecoded ? cand->decoded : decodedHere;
  const sim::TimeResult timed =
      pipe.spec() != nullptr
          ? sim::timeKernel(machine, dfn, *pipe.spec(), config.n,
                            config.context, config.seed, 0,
                            pipe.dataTemplate())
          : fko::timeCompiled(machine, dfn, config.n, config.context,
                              config.seed, pipe.maxStrideElems(), 0,
                              pipe.genericTemplate());
  EvalOutcome out{timed.cycles, EvalOutcome::Status::Timed};
  out.counters = collectCounters(cand->compiled, timed);
  return out;
}

}  // namespace ifko::search
