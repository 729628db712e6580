// Baseline compiler models, ATLAS hand-tuned kernels and selection, and the
// hardware prefetcher they rely on for realistic out-of-cache behaviour.
#include <gtest/gtest.h>

#include "atlas/atlas.h"
#include "atlas/handkernels.h"
#include "baseline/baseline.h"
#include "ir/verifier.h"
#include "kernels/tester.h"
#include "sim/memsys.h"
#include "sim/timer.h"

namespace ifko {
namespace {

using kernels::BlasOp;
using kernels::KernelSpec;

TEST(HwPrefetcher, StreamDetectionFillsAhead) {
  arch::MachineConfig m = arch::opteron();
  sim::MemSystem mem(m);
  uint64_t now = 0;
  // Sequential misses train the prefetcher after the configured streak.
  for (int i = 0; i < 6; ++i)
    now = mem.load(0x10000 + 64u * static_cast<uint64_t>(i), 8, now) + 1;
  EXPECT_GT(mem.stats().hwPrefetches, 0u);
}

TEST(HwPrefetcher, DisabledWhenDepthZero) {
  arch::MachineConfig m = arch::opteron();
  m.hwPrefetchDepth = 0;
  sim::MemSystem mem(m);
  uint64_t now = 0;
  for (int i = 0; i < 16; ++i)
    now = mem.load(0x10000 + 64u * static_cast<uint64_t>(i), 8, now) + 1;
  EXPECT_EQ(mem.stats().hwPrefetches, 0u);
}

TEST(HwPrefetcher, SpeedsUpStreamingLoad) {
  arch::MachineConfig on = arch::p4e();
  arch::MachineConfig off = arch::p4e();
  off.hwPrefetchDepth = 0;
  auto stream = [](const arch::MachineConfig& m) {
    sim::MemSystem mem(m);
    uint64_t now = 0;
    for (int i = 0; i < 256; ++i)
      now = mem.load(0x40000 + 8u * static_cast<uint64_t>(i) * 8, 8, now);
    return now;
  };
  EXPECT_LT(stream(on), stream(off));
}

// ---------------------------------------------------------------------------

TEST(Baseline, NamesAndShape) {
  EXPECT_EQ(baseline::compilerName(baseline::Compiler::GccRef), "gcc+ref");
  KernelSpec dot{BlasOp::Dot, ir::Scal::F64};
  auto gcc = baseline::baselineOptions(baseline::Compiler::GccRef, dot,
                                       arch::p4e());
  EXPECT_FALSE(gcc.tuning.simdVectorize);
  EXPECT_TRUE(gcc.tuning.prefetch.empty());
  EXPECT_EQ(gcc.regalloc, opt::RegAllocKind::Basic);

  auto icc = baseline::baselineOptions(baseline::Compiler::IccRef, dot,
                                       arch::p4e());
  EXPECT_TRUE(icc.tuning.simdVectorize);
  EXPECT_FALSE(icc.tuning.nonTemporalWrites);
  EXPECT_FALSE(icc.tuning.prefetch.empty());

  auto prof = baseline::baselineOptions(baseline::Compiler::IccProf, dot,
                                        arch::p4e());
  EXPECT_TRUE(prof.tuning.nonTemporalWrites);
}

TEST(Baseline, AllBaselinesCompileAllKernelsCorrectly) {
  for (const auto& spec : kernels::allKernels()) {
    for (auto c : {baseline::Compiler::GccRef, baseline::Compiler::IccRef,
                   baseline::Compiler::IccProf}) {
      auto r = baseline::compileBaseline(c, spec, arch::opteron());
      ASSERT_TRUE(r.ok) << spec.name() << " "
                        << baseline::compilerName(c) << ": " << r.error;
      auto outcome = kernels::testKernel(spec, r.fn, 143);
      EXPECT_TRUE(outcome.ok)
          << spec.name() << " " << baseline::compilerName(c) << ": "
          << outcome.message;
    }
  }
}

// ---------------------------------------------------------------------------

class HandKernels : public testing::TestWithParam<ir::Scal> {};

TEST_P(HandKernels, IamaxSimdIsCorrect) {
  ir::Scal prec = GetParam();
  auto fn = atlas::iamaxSimd(prec);
  EXPECT_TRUE(ir::verify(fn).empty());
  KernelSpec spec{BlasOp::Iamax, prec};
  for (int64_t n : {0, 1, 2, 3, 4, 5, 7, 8, 63, 64, 100, 1000}) {
    for (uint64_t seed : {42u, 7u, 99u}) {
      auto outcome = kernels::testKernel(spec, fn, n, seed);
      ASSERT_TRUE(outcome.ok) << "n=" << n << " seed=" << seed << ": "
                              << outcome.message;
    }
  }
}

TEST_P(HandKernels, CopyBlockFetchIsCorrect) {
  ir::Scal prec = GetParam();
  auto fn = atlas::copyBlockFetch(prec);
  EXPECT_TRUE(ir::verify(fn).empty());
  KernelSpec spec{BlasOp::Copy, prec};
  for (int64_t n : {0, 1, 63, 64, 65, 512, 1000})
    ASSERT_TRUE(kernels::testKernel(spec, fn, n).ok) << "n=" << n;
}

TEST_P(HandKernels, CopyCiscIsCorrect) {
  ir::Scal prec = GetParam();
  for (bool nt : {false, true}) {
    auto fn = atlas::copyCisc(prec, nt);
    EXPECT_TRUE(ir::verify(fn).empty());
    KernelSpec spec{BlasOp::Copy, prec};
    for (int64_t n : {0, 1, 7, 8, 9, 100, 1000})
      ASSERT_TRUE(kernels::testKernel(spec, fn, n).ok) << "n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(BothPrecisions, HandKernels,
                         testing::Values(ir::Scal::F32, ir::Scal::F64),
                         [](const auto& info) {
                           return info.param == ir::Scal::F32 ? "f32" : "f64";
                         });

TEST(HandKernels, IamaxSimdKeepsFirstIndexOnTies) {
  // Construct data with an exact tie: positions 5 and 13 hold the same
  // maximal magnitude; BLAS semantics require index 5.
  KernelSpec spec{BlasOp::Iamax, ir::Scal::F64};
  auto fn = atlas::iamaxSimd(ir::Scal::F64);
  auto data = kernels::makeKernelData(spec, 32);
  data.mem->write<double>(data.xAddr + 5 * 8, -3.5);
  data.mem->write<double>(data.xAddr + 13 * 8, 3.5);
  auto r = sim::runDecoded(sim::decodeFunction(fn), *data.mem, data.args(fn));
  ASSERT_TRUE(r.intResult.has_value());
  EXPECT_EQ(*r.intResult, 5);
}

TEST(Atlas, PoolContainsAssemblyVariantsWhereExpected) {
  auto pool = atlas::variantPool({BlasOp::Iamax, ir::Scal::F32}, arch::p4e());
  bool hasAsm = false;
  for (const auto& v : pool) hasAsm |= v.assembly;
  EXPECT_TRUE(hasAsm);
  EXPECT_GE(pool.size(), 3u);

  auto dotPool = atlas::variantPool({BlasOp::Dot, ir::Scal::F64}, arch::p4e());
  for (const auto& v : dotPool) EXPECT_FALSE(v.assembly);
  EXPECT_GE(dotPool.size(), 4u);
}

TEST(Atlas, SelectionPicksCorrectFastVariant) {
  // The hand-vectorized iamax wins decisively for single precision on the
  // Opteron (for doubles on K8's half-rate SSE datapath the blend-heavy
  // SIMD loop can lose to deep scalar unrolling, and the selection then
  // correctly keeps the scalar variant).
  KernelSpec spec{BlasOp::Iamax, ir::Scal::F32};
  auto sel = atlas::selectKernel(spec, arch::opteron(), 20000,
                                 sim::TimeContext::OutOfCache);
  ASSERT_TRUE(sel.ok) << sel.error;
  EXPECT_GT(sel.tried, 1);
  EXPECT_TRUE(sel.best.assembly);
  EXPECT_EQ(sel.displayName, "isamax*");
  // And the winner is correct.
  EXPECT_TRUE(kernels::testKernel(spec, sel.best.fn, 333).ok);
}

TEST(Atlas, SelectionWorksForEveryKernel) {
  for (const auto& spec : kernels::allKernels()) {
    auto sel = atlas::selectKernel(spec, arch::opteron(), 2048,
                                   sim::TimeContext::OutOfCache);
    ASSERT_TRUE(sel.ok) << spec.name() << ": " << sel.error;
    EXPECT_GT(sel.cycles, 0u);
  }
}

}  // namespace
}  // namespace ifko
