// The generality layer: strided kernels, the rot extension kernel, the
// generic operand harness, differential testing, and source-level tuning.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/loopinfo.h"
#include "arch/machine.h"
#include "fko/compiler.h"
#include "fko/harness.h"
#include "hil/lower.h"
#include "kernels/registry.h"
#include "kernels/tester.h"
#include "search/linesearch.h"

namespace ifko {
namespace {

using kernels::BlasOp;
using kernels::KernelSpec;

// --- strided access ----------------------------------------------------------

constexpr const char* kStridedScal = R"(
ROUTINE sscal2;
PARAMS :: Y = VEC(inout), alpha = SCALAR, N = INT;
TYPE double;
SCALARS :: y;
LOOP i = 0, N
LOOP_BODY
  y = Y[0];
  y *= alpha;
  Y[0] = y;
  Y += 2;
LOOP_END
END
)";

TEST(Strided, NotVectorizable) {
  DiagnosticEngine d;
  auto fn = hil::compileHil(kStridedScal, d);
  ASSERT_TRUE(fn.has_value()) << d.str();
  auto info = analysis::analyzeLoop(*fn);
  ASSERT_TRUE(info.found);
  EXPECT_FALSE(info.vectorizable);
  EXPECT_NE(info.whyNotVectorizable.find("unit stride"), std::string::npos);
  EXPECT_EQ(info.arrays[0].bumpBytes, 16);
}

TEST(Strided, UnrolledStridedKernelIsCorrect) {
  // N iterations touch elements 0, 2, 4, ... — the harness must allocate
  // 2N elements.  Verify via the differential tester with every unroll.
  for (int ur : {1, 3, 4, 8}) {
    fko::CompileOptions opts;
    opts.tuning.unroll = ur;
    opts.tuning.prefetch["Y"] = {true, ir::PrefKind::NTA, 256};
    auto r = fko::compileKernel(kStridedScal, opts, arch::p4e());
    ASSERT_TRUE(r.ok) << r.error;
    // n=100 iterations touch up to element 199; the generic harness sizes
    // arrays by n, so test with the candidate against the plain lowering
    // at a size where 2*n fits: use n=100 with arrays of 200 … the
    // differential harness allocates n elements, so halve n.
    auto diff = fko::testAgainstUnoptimized(kStridedScal, r.fn, 50);
    EXPECT_TRUE(diff.ok) << "ur=" << ur << ": " << diff.message;
  }
}

// --- rot (extended kernel) ----------------------------------------------------

TEST(Rot, InExtendedRegistryOnly) {
  for (const auto& spec : kernels::allKernels())
    EXPECT_NE(spec.op, BlasOp::Rot);
  bool found = false;
  for (const auto& spec : kernels::extendedKernels())
    if (spec.op == BlasOp::Rot) found = true;
  EXPECT_TRUE(found);
  KernelSpec rot{BlasOp::Rot, ir::Scal::F64};
  EXPECT_EQ(rot.name(), "drot");
  EXPECT_DOUBLE_EQ(rot.flops(10), 60.0);
}

TEST(Rot, AnalyzesAsVectorizableWithoutAccumulators) {
  KernelSpec rot{BlasOp::Rot, ir::Scal::F32};
  auto rep = fko::analyzeKernel(rot.hilSource(), arch::p4e());
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_TRUE(rep.vectorizable) << rep.whyNotVectorizable;
  EXPECT_EQ(rep.numAccumulators, 0);
  EXPECT_EQ(rep.arrays.size(), 2u);
}

TEST(Rot, CorrectAcrossTransformGrid) {
  for (ir::Scal prec : {ir::Scal::F32, ir::Scal::F64}) {
    KernelSpec spec{BlasOp::Rot, prec};
    for (int ur : {1, 4, 8}) {
      for (bool sv : {false, true}) {
        fko::CompileOptions opts;
        opts.tuning.simdVectorize = sv;
        opts.tuning.unroll = ur;
        opts.tuning.nonTemporalWrites = ur == 8;
        auto r = fko::compileKernel(spec.hilSource(), opts, arch::opteron());
        ASSERT_TRUE(r.ok) << spec.name() << ": " << r.error;
        for (int64_t n : {0, 1, 7, 100}) {
          auto outcome = kernels::testKernel(spec, r.fn, n);
          ASSERT_TRUE(outcome.ok) << spec.name() << " ur=" << ur
                                  << " sv=" << sv << " n=" << n << ": "
                                  << outcome.message;
        }
      }
    }
  }
}

TEST(Rot, TunesEndToEnd) {
  KernelSpec spec{BlasOp::Rot, ir::Scal::F64};
  auto cfg = search::SearchConfig::smoke();
  auto r = search::tuneKernel(spec, arch::p4e(), cfg);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_LE(r.bestCycles, r.defaultCycles);
}

// --- generic harness -----------------------------------------------------------

TEST(GenericHarness, BuildsArgsForAnySignature) {
  KernelSpec rot{BlasOp::Rot, ir::Scal::F64};
  DiagnosticEngine d;
  auto fn = hil::compileHil(rot.hilSource(), d);
  ASSERT_TRUE(fn.has_value());
  auto data = fko::makeGenericData(*fn, 64);
  ASSERT_EQ(data.args.size(), 5u);  // X, Y, c, s, N
  ASSERT_EQ(data.arrays.size(), 2u);
  EXPECT_TRUE(data.arrays[0].written);
  // Distinct scalar values for c and s.
  EXPECT_NE(std::get<double>(data.args[2]), std::get<double>(data.args[3]));
  EXPECT_EQ(std::get<int64_t>(data.args[4]), 64);
}

TEST(GenericHarness, DataIsReproducible) {
  KernelSpec dot{BlasOp::Dot, ir::Scal::F32};
  DiagnosticEngine d;
  auto fn = hil::compileHil(dot.hilSource(), d);
  ASSERT_TRUE(fn.has_value());
  auto a = fko::makeGenericData(*fn, 32, 7);
  auto b = fko::makeGenericData(*fn, 32, 7);
  for (size_t i = 0; i < 32; ++i)
    EXPECT_EQ(a.mem->read<float>(a.arrays[0].addr + i * 4),
              b.mem->read<float>(b.arrays[0].addr + i * 4));
}

TEST(DiffTester, AcceptsEquivalentOptimizedKernels) {
  for (const auto& spec : kernels::extendedKernels()) {
    fko::CompileOptions opts;
    opts.tuning.unroll = 4;
    opts.tuning.accumExpand = 2;
    auto r = fko::compileKernel(spec.hilSource(), opts, arch::p4e());
    ASSERT_TRUE(r.ok) << spec.name();
    auto diff = fko::testAgainstUnoptimized(spec.hilSource(), r.fn, 100);
    EXPECT_TRUE(diff.ok) << spec.name() << ": " << diff.message;
  }
}

TEST(DiffTester, CatchesABrokenKernel) {
  // Miscompile on purpose: compile scal but run it as if it were copy's
  // source — outputs differ, the differential tester must notice.
  KernelSpec scal{BlasOp::Scal, ir::Scal::F64};
  KernelSpec copy{BlasOp::Copy, ir::Scal::F64};
  fko::CompileOptions opts;
  auto r = fko::compileKernel(copy.hilSource(), opts, arch::p4e());
  ASSERT_TRUE(r.ok);
  auto diff = fko::testAgainstUnoptimized(scal.hilSource(), r.fn, 64);
  EXPECT_FALSE(diff.ok);
  // The one comparison rule every tester shares: a NaN or infinite result
  // never matches a finite expectation.
  EXPECT_FALSE(kernels::withinTolerance(NAN, 1.0, ir::Scal::F64));
  EXPECT_FALSE(kernels::withinTolerance(INFINITY, 1.0, ir::Scal::F32));
  EXPECT_TRUE(kernels::withinTolerance(1.0 + 1e-12, 1.0, ir::Scal::F64));
}

TEST(GenericTimer, MatchesKernelTimerBehaviour) {
  KernelSpec spec{BlasOp::Asum, ir::Scal::F64};
  fko::CompileOptions opts;
  auto r = fko::compileKernel(spec.hilSource(), opts, arch::opteron());
  ASSERT_TRUE(r.ok);
  auto cold = fko::timeCompiled(arch::opteron(), r.fn, 2048,
                                sim::TimeContext::OutOfCache);
  auto warm =
      fko::timeCompiled(arch::opteron(), r.fn, 2048, sim::TimeContext::InL2);
  EXPECT_LT(warm.cycles, cold.cycles);
  EXPECT_GT(cold.dynInsts, 0u);
}

// --- source-level tuning ---------------------------------------------------------

TEST(TuneSource, WorksWithoutAReferenceImplementation) {
  KernelSpec spec{BlasOp::Dot, ir::Scal::F64};
  auto cfg = search::SearchConfig::smoke();
  auto bySpec = search::tuneKernel(spec, arch::p4e(), cfg);
  auto bySource = search::tuneSource(spec.hilSource(), arch::p4e(), cfg);
  ASSERT_TRUE(bySpec.ok && bySource.ok) << bySource.error;
  // The generic path times with its own operand layout, so cycle counts
  // (and hence the chosen point) may differ slightly — but the search must
  // work, improve on the defaults, and see the same analysis.
  EXPECT_LE(bySource.bestCycles, bySource.defaultCycles);
  EXPECT_EQ(bySource.analysis.vectorizable, bySpec.analysis.vectorizable);
  EXPECT_EQ(bySource.analysis.numAccumulators,
            bySpec.analysis.numAccumulators);
  // And both land in the same ballpark.
  double ratio = static_cast<double>(bySource.bestCycles) /
                 static_cast<double>(bySpec.bestCycles);
  EXPECT_GT(ratio, 0.7);
  EXPECT_LT(ratio, 1.4);
}

TEST(TuneSource, TunesANonBlasKernel) {
  constexpr const char* kSumSq = R"(
ROUTINE sumsq;
PARAMS :: X = VEC(in), N = INT;
TYPE double;
SCALARS :: x, acc;
acc = 0.0;
LOOP i = 0, N
LOOP_BODY
  x = X[0];
  acc += x * x;
  X += 1;
LOOP_END
RETURN acc;
END
)";
  auto cfg = search::SearchConfig::smoke();
  auto r = search::tuneSource(kSumSq, arch::opteron(), cfg);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.analysis.vectorizable);
  EXPECT_EQ(r.analysis.numAccumulators, 1);
  EXPECT_LE(r.bestCycles, r.defaultCycles);
}

}  // namespace
}  // namespace ifko
