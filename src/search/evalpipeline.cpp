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
  const std::string key = opt::formatTuningSpec(params);
  const bool tryPrefix =
      config_.reusePrefixCompiles && hasEnabledPrefetch(params);
  std::string pkey;
  PrefixEntry basis;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = memo_.find(key);
    if (it != memo_.end()) {
      ++stats_.memoHits;
      return it->second;
    }
    if (tryPrefix) {
      pkey = prefixKey(params);
      auto pit = prefix_.find(pkey);
      if (pit != prefix_.end()) basis = pit->second;
    }
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
  auto [it, inserted] = memo_.emplace(key, cand);
  if (!inserted) return it->second;  // lost a benign race; results identical
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
  const bool pass =
      spec_ != nullptr
          ? kernels::testKernel(*spec_, cand->compiled.fn, config_.testerN).ok
          : fko::checkAgainstReference(testerReference(), cand->compiled.fn)
                .ok;
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
  if (!config_.reuseKernelData || spec_ == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  if (dataTmpl_ == nullptr)
    dataTmpl_ = std::make_unique<kernels::KernelData>(
        kernels::makeKernelData(*spec_, config_.n, config_.seed));
  return dataTmpl_.get();
}

const fko::GenericData* EvalPipeline::genericTemplate() {
  if (!config_.reuseKernelData || !lowered_.ok) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  if (genTmpl_ == nullptr)
    genTmpl_ = std::make_unique<fko::GenericData>(fko::makeGenericData(
        lowered_.fn.params, config_.n, config_.seed, 0.75, maxStrideElems_));
  return genTmpl_.get();
}

EvalOutcome evaluateCandidate(const EvalRequest& req) {
  const SearchConfig& config = *req.config;
  if (!req.lowered->ok) return {0, EvalOutcome::Status::CompileFail};

  std::shared_ptr<const CompiledCandidate> held;
  fko::CompileResult local;
  const fko::CompileResult* compiled = nullptr;
  const sim::DecodedFunction* decoded = nullptr;
  if (req.pipeline != nullptr) {
    held = req.pipeline->compile(req.params);
    compiled = &held->compiled;
    if (compiled->ok && held->decoded.numBlocks > 0) decoded = &held->decoded;
  } else {
    fko::CompileOptions opts;
    opts.tuning = req.params;
    local = fko::compileKernel(req.lowered->fn, opts, *req.machine);
    compiled = &local;
  }
  if (!compiled->ok) return {0, EvalOutcome::Status::CompileFail};

  if (config.testerN > 0) {
    bool pass;
    if (req.pipeline != nullptr) {
      pass = req.pipeline->testerPasses(held);
    } else {
      pass = req.spec != nullptr
                 ? kernels::testKernel(*req.spec, compiled->fn, config.testerN)
                       .ok
                 : fko::testAgainstUnoptimized(*req.hilSource, compiled->fn,
                                               config.testerN)
                       .ok;
    }
    if (!pass) return {0, EvalOutcome::Status::TesterFail};
  }

  // Screening runs (timeN > 0) truncate the loop trip count but keep the
  // operands at the full config.n: the screen is an exact prefix of the
  // full-size run (see sim/timer.h).
  const int64_t loopN = req.timeN > 0 ? req.timeN : 0;
  sim::TimeResult timed;
  if (req.spec != nullptr) {
    const kernels::KernelData* tmpl =
        req.pipeline != nullptr ? req.pipeline->dataTemplate() : nullptr;
    timed = decoded != nullptr
                ? sim::timeKernel(*req.machine, *decoded, *req.spec, config.n,
                                  config.context, config.seed, loopN, tmpl)
                : sim::timeKernel(*req.machine, compiled->fn, *req.spec,
                                  config.n, config.context, config.seed, loopN,
                                  tmpl);
  } else {
    int64_t strideElems = 1;
    const fko::GenericData* tmpl = nullptr;
    if (req.pipeline != nullptr) {
      strideElems = req.pipeline->maxStrideElems();
      tmpl = req.pipeline->genericTemplate();
    } else {
      for (const auto& a : req.analysis->arrays)
        strideElems = std::max(strideElems, a.strideElems);
    }
    timed = decoded != nullptr
                ? fko::timeCompiled(*req.machine, *decoded, config.n,
                                    config.context, config.seed, strideElems,
                                    loopN, tmpl)
                : fko::timeCompiled(*req.machine, compiled->fn, config.n,
                                    config.context, config.seed, strideElems,
                                    loopN, tmpl);
  }
  EvalOutcome out{timed.cycles, EvalOutcome::Status::Timed};
  out.counters = collectCounters(*compiled, timed);
  return out;
}

bool screeningApplies(const SearchConfig& config, size_t cohort) {
  return config.screenN > 0 && 2 * config.screenN < config.n &&
         cohort >= kScreenMinCohort;
}

EvalOutcome deltaScreen(const EvalOutcome& head, const EvalOutcome& tail) {
  EvalOutcome d = tail;
  // The tail strictly contains the head run, so the subtraction cannot
  // underflow on usable outcomes; guard anyway so a surprise never wraps.
  d.cycles = tail.cycles > head.cycles ? tail.cycles - head.cycles : 1;
  d.attempts = head.attempts + tail.attempts - 1;
  return d;
}

std::vector<char> screenSurvivors(const SearchConfig& config,
                                  const std::vector<EvalOutcome>& screens,
                                  uint64_t incumbentScreen) {
  std::vector<char> advance(screens.size(), 0);
  uint64_t best = 0;
  for (const EvalOutcome& s : screens)
    if (s.usable() && (best == 0 || s.cycles < best)) best = s.cycles;
  if (best == 0) return advance;  // every screen failed; verdicts are final
  if (incumbentScreen != 0) best = std::min(best, incumbentScreen);
  const double cutoff = static_cast<double>(best) * config.screenMargin;
  for (size_t i = 0; i < screens.size(); ++i)
    advance[i] = screens[i].usable() &&
                 static_cast<double>(screens[i].cycles) <= cutoff;
  return advance;
}

}  // namespace ifko::search
