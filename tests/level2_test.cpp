// Nested loops + Level 2 BLAS: lowering, analysis of the inner tuned loop,
// full transform correctness, and tuning of gemv/ger.
#include <gtest/gtest.h>

#include "analysis/loopinfo.h"
#include "arch/machine.h"
#include "fko/compiler.h"
#include "hil/lower.h"
#include "ir/verifier.h"
#include "kernels/level2.h"

namespace ifko {
namespace {

TEST(Level2, GemvLowersWithInnerLoopMarked) {
  DiagnosticEngine d;
  auto fn = hil::compileHil(kernels::gemvSource(ir::Scal::F64), d);
  ASSERT_TRUE(fn.has_value()) << d.str();
  EXPECT_TRUE(ir::verify(*fn).empty());
  ASSERT_TRUE(fn->loop.valid);
  auto info = analysis::analyzeLoop(*fn);
  ASSERT_TRUE(info.found) << info.problem;
  EXPECT_TRUE(info.vectorizable) << info.whyNotVectorizable;
  EXPECT_EQ(info.accumulators.size(), 1u);  // acc
  // Arrays seen by the inner loop: A and X advance; Y does not.
  const auto* a = info.findArray("A");
  const auto* x = info.findArray("X");
  const auto* y = info.findArray("Y");
  ASSERT_TRUE(a && x && y);
  EXPECT_EQ(a->bumpBytes, 8);
  EXPECT_TRUE(a->prefetchable());
  EXPECT_FALSE(x->prefetchable());  // nopref mark-up
  EXPECT_EQ(y->bumpBytes, 0);
}

TEST(Level2, GerBroadcastsTheInvariantScalar) {
  DiagnosticEngine d;
  auto fn = hil::compileHil(kernels::gerSource(ir::Scal::F32), d);
  ASSERT_TRUE(fn.has_value()) << d.str();
  auto info = analysis::analyzeLoop(*fn);
  ASSERT_TRUE(info.found) << info.problem;
  EXPECT_TRUE(info.vectorizable) << info.whyNotVectorizable;
  // ax = alpha*x[r] is computed per row outside the inner loop.
  EXPECT_GE(info.invariantFpInputs.size(), 1u);
}

// gtest names each case by printing the parameter's raw bytes, so the
// struct has no padding: bool fields would leave stack garbage in the
// names and make them differ from run to run.
struct L2Case {
  int sv;
  int ur;
  int ae;
  int pf;
};

class GemvGrid : public testing::TestWithParam<L2Case> {};

TEST_P(GemvGrid, CorrectUnderTransforms) {
  auto c = GetParam();
  for (ir::Scal prec : {ir::Scal::F32, ir::Scal::F64}) {
    fko::CompileOptions opts;
    opts.tuning.simdVectorize = c.sv;
    opts.tuning.unroll = c.ur;
    opts.tuning.accumExpand = c.ae;
    if (c.pf) opts.tuning.prefetch["A"] = {true, ir::PrefKind::NTA, 512};
    auto r = fko::compileKernel(kernels::gemvSource(prec), opts, arch::p4e());
    ASSERT_TRUE(r.ok) << r.error;
    for (auto [m, n] : {std::pair<int64_t, int64_t>{0, 16},
                        {1, 1},
                        {3, 7},
                        {8, 64},
                        {5, 33}}) {
      auto outcome = kernels::testGemv(r.fn, m, n);
      ASSERT_TRUE(outcome.ok)
          << "m=" << m << " n=" << n << ": " << outcome.message;
    }
  }
}

TEST_P(GemvGrid, GerCorrectUnderTransforms) {
  auto c = GetParam();
  fko::CompileOptions opts;
  opts.tuning.simdVectorize = c.sv;
  opts.tuning.unroll = c.ur;
  opts.tuning.accumExpand = c.ae;
  opts.tuning.nonTemporalWrites = c.pf;  // exercise WNT on A's stores too
  auto r = fko::compileKernel(kernels::gerSource(ir::Scal::F64), opts,
                              arch::opteron());
  ASSERT_TRUE(r.ok) << r.error;
  for (auto [m, n] : {std::pair<int64_t, int64_t>{2, 5}, {7, 32}, {1, 100}}) {
    auto outcome = kernels::testGer(r.fn, m, n);
    ASSERT_TRUE(outcome.ok) << "m=" << m << " n=" << n << ": "
                            << outcome.message;
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, GemvGrid,
                         testing::Values(L2Case{false, 1, 1, false},
                                         L2Case{true, 1, 1, false},
                                         L2Case{true, 4, 2, true},
                                         L2Case{false, 8, 1, true},
                                         L2Case{true, 16, 4, false}),
                         [](const auto& info) {
                           const L2Case& c = info.param;
                           return std::string(c.sv ? "sv" : "scalar") + "_ur" +
                                  std::to_string(c.ur) + "_ae" +
                                  std::to_string(c.ae) + (c.pf ? "_pf" : "");
                         });

TEST(Level2, TransformsSpeedUpGemv) {
  // The tuned inner loop pays off: SV+UR+AE+PF beats the plain lowering.
  auto prec = ir::Scal::F64;
  fko::CompileOptions plain, tuned;
  plain.tuning.simdVectorize = false;
  tuned.tuning.unroll = 4;
  tuned.tuning.accumExpand = 4;
  tuned.tuning.prefetch["A"] = {true, ir::PrefKind::NTA, 1024};
  auto a = fko::compileKernel(kernels::gemvSource(prec), plain, arch::p4e());
  auto b = fko::compileKernel(kernels::gemvSource(prec), tuned, arch::p4e());
  ASSERT_TRUE(a.ok && b.ok);
  auto ta = kernels::timeGemv(arch::p4e(), a.fn, 64, 512,
                              sim::TimeContext::InL2);
  auto tb = kernels::timeGemv(arch::p4e(), b.fn, 64, 512,
                              sim::TimeContext::InL2);
  EXPECT_LT(tb.cycles, ta.cycles);
}

}  // namespace
}  // namespace ifko
