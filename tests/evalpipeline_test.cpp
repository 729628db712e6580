// The evaluation pipeline's contract: every shortcut it takes — decoding
// once per candidate, prefix compile patching, operand-template cloning,
// the shared differential-tester reference, truncated-prefix runs — is
// bit-identical to doing the work from scratch, and a full tuning search
// picks the same winners whether or not candidates are decoded up front.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "arch/machine.h"
#include "fko/compiler.h"
#include "fko/harness.h"
#include "ir/printer.h"
#include "kernels/registry.h"
#include "kernels/tester.h"
#include "opt/params.h"
#include "search/evalpipeline.h"
#include "search/linesearch.h"
#include "search/orchestrator.h"
#include "sim/decode.h"
#include "sim/timer.h"

namespace ifko {
namespace {

search::SearchConfig testConfig(bool predecode, sim::TimeContext ctx) {
  search::SearchConfig cfg = search::SearchConfig::smoke();
  cfg.n = 4096;
  cfg.context = ctx;
  cfg.predecode = predecode;
  return cfg;
}

/// Winner invariance: all 14 registry kernels, both timing contexts,
/// candidates decoded when compiled or inside the timed call — the
/// tuned parameters and their cycle counts never change.
TEST(EvalPipelineInvariance, WinnersIdenticalAcrossAllModes) {
  const auto machine = arch::p4e();
  for (sim::TimeContext ctx :
       {sim::TimeContext::OutOfCache, sim::TimeContext::InL2}) {
    for (const auto& spec : kernels::allKernels()) {
      search::TuneResult base;
      for (bool predecode : {false, true}) {
        search::SearchConfig cfg = testConfig(predecode, ctx);
        search::TuneResult r = search::tuneKernel(spec, machine, cfg);
        ASSERT_TRUE(r.ok) << spec.name();
        if (!base.ok) {
          base = r;
          continue;
        }
        const std::string label = spec.name() + " ctx=" +
                                  std::string(sim::contextName(ctx)) +
                                  " predecode=" + (predecode ? "1" : "0");
        EXPECT_EQ(opt::formatTuningSpec(r.best),
                  opt::formatTuningSpec(base.best))
            << label;
        EXPECT_EQ(r.bestCycles, base.bestCycles) << label;
        EXPECT_EQ(r.defaultCycles, base.defaultCycles) << label;
        EXPECT_EQ(r.evaluations, base.evaluations) << label;
      }
    }
  }
}

/// Prefix compile reuse: a candidate derived by patching the Pref
/// displacements of a compiled sibling is byte-identical (printed IR) to
/// compiling it from scratch.
TEST(EvalPipelineCompile, PrefixPatchedCandidateMatchesFreshCompile) {
  const auto machine = arch::p4e();
  const auto& spec = kernels::allKernels().front();  // sswap: two arrays
  search::SearchConfig cfg = search::SearchConfig::smoke();
  cfg.n = 4096;
  search::EvalPipeline pipeline(spec.hilSource(), &spec, machine, cfg);

  opt::TuningParams a;
  a.unroll = 4;
  a.prefetch["X"] = {true, ir::PrefKind::NTA, 256};
  auto first = pipeline.compile(a);
  ASSERT_TRUE(first->compiled.ok);

  opt::TuningParams b = a;
  b.prefetch["X"].distBytes = 1024;  // same enabled set, new distance
  auto patched = pipeline.compile(b);
  ASSERT_TRUE(patched->compiled.ok);
  auto stats = pipeline.stats();
  EXPECT_EQ(stats.fullCompiles, 1u);
  EXPECT_EQ(stats.prefixPatches, 1u);

  fko::CompileOptions opts;
  opts.tuning = b;
  auto fresh = fko::compileKernel(spec.hilSource(), opts, machine);
  ASSERT_TRUE(fresh.ok);
  EXPECT_EQ(ir::print(patched->compiled.fn), ir::print(fresh.fn));
}

/// Operand-template cloning: the cloned timing image is bit-for-bit the
/// image a fresh makeKernelData produces, and timing over it gives the
/// same cycles.
TEST(EvalPipelineData, ClonedKernelDataMatchesFresh) {
  const auto& spec = kernels::allKernels().front();
  kernels::KernelData fresh = kernels::makeKernelData(spec, 1024, 42);
  kernels::KernelData tmpl = kernels::makeKernelData(spec, 1024, 42);
  kernels::KernelData clone = tmpl.clone();
  ASSERT_EQ(clone.mem->size(), fresh.mem->size());
  std::vector<uint8_t> a(fresh.mem->size()), b(fresh.mem->size());
  fresh.mem->readBytes(64, a.data() + 64, a.size() - 64);
  clone.mem->readBytes(64, b.data() + 64, b.size() - 64);
  EXPECT_EQ(a, b);
  EXPECT_EQ(clone.xAddr, fresh.xAddr);
  EXPECT_EQ(clone.yAddr, fresh.yAddr);
  EXPECT_EQ(clone.n, fresh.n);

  const auto machine = arch::p4e();
  fko::CompileOptions opts;
  auto compiled = fko::compileKernel(spec.hilSource(), opts, machine);
  ASSERT_TRUE(compiled.ok);
  auto without = sim::timeKernel(machine, compiled.fn, spec, 1024,
                                 sim::TimeContext::OutOfCache, 42);
  auto with = sim::timeKernel(machine, compiled.fn, spec, 1024,
                              sim::TimeContext::OutOfCache, 42, 0, &tmpl);
  EXPECT_EQ(without.cycles, with.cycles);
  EXPECT_EQ(without.mem, with.mem);
}

/// Truncated-prefix runs: loopN = n reproduces the full run
/// exactly, and shorter prefixes are strictly cheaper and monotone (a
/// longer prefix of the same deterministic run can only add cycles).
TEST(EvalPipelineScreen, TruncatedPrefixRunsAreExactPrefixes) {
  const auto machine = arch::p4e();
  const auto& spec = kernels::allKernels().front();
  fko::CompileOptions opts;
  auto compiled = fko::compileKernel(spec.hilSource(), opts, machine);
  ASSERT_TRUE(compiled.ok);
  const int64_t n = 4096;
  auto full = sim::timeKernel(machine, compiled.fn, spec, n,
                              sim::TimeContext::OutOfCache, 42);
  auto sameAsFull = sim::timeKernel(machine, compiled.fn, spec, n,
                                    sim::TimeContext::OutOfCache, 42, n);
  EXPECT_EQ(full.cycles, sameAsFull.cycles);
  EXPECT_EQ(full.mem, sameAsFull.mem);

  auto head = sim::timeKernel(machine, compiled.fn, spec, n,
                              sim::TimeContext::OutOfCache, 42, 512);
  auto tail = sim::timeKernel(machine, compiled.fn, spec, n,
                              sim::TimeContext::OutOfCache, 42, 1024);
  EXPECT_LT(0u, head.cycles);
  EXPECT_LT(head.cycles, tail.cycles);
  EXPECT_LT(tail.cycles, full.cycles);

  // Determinism: the same prefix twice is the same run.
  auto again = sim::timeKernel(machine, compiled.fn, spec, n,
                               sim::TimeContext::OutOfCache, 42, 512);
  EXPECT_EQ(head.cycles, again.cycles);
}

/// A deliberately broken candidate: every FP store writes one element past
/// where it should.  False when the kernel stores nothing.
bool shiftStores(ir::Function& fn, ir::Scal elem) {
  bool any = false;
  for (auto& bb : fn.blocks)
    for (auto& inst : bb.insts)
      if (inst.op == ir::Op::FSt || inst.op == ir::Op::FStNT ||
          inst.op == ir::Op::VSt || inst.op == ir::Op::VStNT) {
        inst.mem.disp += static_cast<int32_t>(scalBytes(elem));
        any = true;
      }
  return any;
}

std::shared_ptr<const search::CompiledCandidate> brokenCandidate(
    search::EvalPipeline& p, const opt::TuningParams& params) {
  auto out = std::make_shared<search::CompiledCandidate>();
  out->compiled = p.compile(params)->compiled;
  if (!out->compiled.ok ||
      !shiftStores(out->compiled.fn, p.analysis().elemType))
    return nullptr;
  return out;
}

/// The shared differential reference answers exactly like a fresh
/// testAgainstUnoptimized: for every kernels_hil kernel, the FKO defaults,
/// UR=4/AE=2, WNT and a broken candidate get the same verdict from the
/// pipeline and the same message from its reference, and the reference's
/// pristine operands are the ones makeGenericData gives the candidate.
TEST(EvalPipelineTester, SharedReferenceMatchesFreshDifferentialTest) {
  std::string err;
  const auto jobs = search::loadKernelDir(IFKO_KERNELS_HIL_DIR, &err);
  ASSERT_EQ(jobs.size(), 24u) << err;
  const auto machine = arch::p4e();
  const search::SearchConfig cfg = search::SearchConfig::smoke();
  int brokenChecked = 0;
  for (const auto& job : jobs) {
    SCOPED_TRACE(job.name);
    search::EvalPipeline p(job.hilSource, nullptr, machine, cfg);
    ASSERT_TRUE(p.lowered().ok);
    const fko::DiffReference& ref = p.testerReference();
    ASSERT_TRUE(ref.error.empty()) << ref.error;

    const opt::TuningParams defaults = search::fkoDefaults(p.analysis(),
                                                           machine);
    opt::TuningParams unrolled = defaults;
    unrolled.unroll = 4;
    unrolled.accumExpand = 2;
    opt::TuningParams wnt = defaults;
    wnt.nonTemporalWrites = true;
    std::vector<std::shared_ptr<const search::CompiledCandidate>> cands;
    for (const auto& params : {defaults, unrolled, wnt}) {
      auto cand = p.compile(params);
      ASSERT_TRUE(cand->compiled.ok) << cand->compiled.error;
      cands.push_back(cand);
    }
    auto broken = brokenCandidate(p, defaults);
    if (broken != nullptr) cands.push_back(broken);

    for (size_t i = 0; i < cands.size(); ++i) {
      const ir::Function& fn = cands[i]->compiled.fn;
      const fko::DiffOutcome fresh =
          fko::testAgainstUnoptimized(job.hilSource, fn, cfg.testerN);
      const fko::DiffOutcome shared = fko::checkAgainstReference(ref, fn);
      EXPECT_EQ(p.testerPasses(cands[i]), fresh.ok) << i;
      EXPECT_EQ(shared.ok, fresh.ok) << i;
      EXPECT_EQ(shared.message, fresh.message) << i;
      if (cands[i] == broken) {
        EXPECT_FALSE(fresh.ok);
        ++brokenChecked;
      } else {
        EXPECT_TRUE(fresh.ok) << i << ": " << fresh.message;
      }

      const fko::GenericData own = fko::makeGenericData(
          fn, cfg.testerN, 42, 0.75, ref.strideElems);
      // Past both stored prefixes every byte reads zero by construction.
      ASSERT_EQ(own.mem->size(), ref.pristine.mem->size());
      const size_t held = std::max(own.mem->storedBytes(),
                                   ref.pristine.mem->storedBytes());
      for (uint64_t a = 64; a < held; ++a)
        ASSERT_EQ(own.mem->read<uint8_t>(a), ref.pristine.mem->read<uint8_t>(a))
            << a;
      ASSERT_EQ(own.arrays.size(), ref.pristine.arrays.size());
      for (size_t k = 0; k < own.arrays.size(); ++k)
        EXPECT_EQ(own.arrays[k].addr, ref.pristine.arrays[k].addr);
    }
    EXPECT_EQ(p.stats().referenceBuilds, 1u);
  }
  EXPECT_GE(brokenChecked, 16);  // every kernel with a stored output
}

/// Eight threads share one pipeline's reference: they compile prefetch
/// variants (prefix patches inherit tester verdicts across threads) and
/// ask for verdicts concurrently; every verdict equals the serial one and
/// the reference is built exactly once.  Several fresh pipelines widen the
/// window in which a race could show under TSan.
TEST(EvalPipelineTester, ConcurrentVerdictsShareOneReference) {
  const auto machine = arch::p4e();
  const search::SearchConfig cfg = search::SearchConfig::smoke();
  const auto& spec = kernels::allKernels().front();  // sswap: two arrays
  for (int trial = 0; trial < 4; ++trial) {
    search::EvalPipeline p(spec.hilSource(), nullptr, machine, cfg);
    ASSERT_TRUE(p.lowered().ok);
    const opt::TuningParams defaults =
        search::fkoDefaults(p.analysis(), machine);
    auto broken = brokenCandidate(p, defaults);
    ASSERT_NE(broken, nullptr);

    // All threads walk the same prefix-memo bases in the same order, each
    // at its own prefetch distance, so prefix patches of a base race with
    // the first tester run on it.
    constexpr int kThreads = 8;
    std::vector<opt::TuningParams> bases;
    for (int ur : {1, 2, 4, 8, 16})
      for (bool wnt : {false, true}) {
        opt::TuningParams params = defaults;
        params.unroll = ur;
        params.nonTemporalWrites = wnt;
        bases.push_back(params);
      }
    std::vector<std::vector<int>> verdicts(kThreads);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        for (const opt::TuningParams& base : bases) {
          opt::TuningParams params = base;
          for (const auto& a : p.analysis().arrays)
            params.prefetch[a.name] = {true, ir::PrefKind::NTA, 64 * (t + 1)};
          auto cand = p.compile(params);
          verdicts[static_cast<size_t>(t)].push_back(
              cand->compiled.ok && p.testerPasses(cand));
          verdicts[static_cast<size_t>(t)].push_back(p.testerPasses(broken));
        }
      });
    }
    for (auto& w : workers) w.join();

    const bool brokenFresh =
        fko::testAgainstUnoptimized(spec.hilSource(), broken->compiled.fn,
                                    cfg.testerN)
            .ok;
    EXPECT_FALSE(brokenFresh);
    for (const auto& v : verdicts) {
      ASSERT_EQ(v.size(), 2 * bases.size());
      for (size_t i = 0; i < v.size(); i += 2) {
        EXPECT_TRUE(v[i]);
        EXPECT_EQ(v[i + 1], brokenFresh);
      }
    }
    const auto stats = p.stats();
    EXPECT_EQ(stats.referenceBuilds, 1u);
    EXPECT_GT(stats.prefixPatches, 0u);
  }
}

}  // namespace
}  // namespace ifko
