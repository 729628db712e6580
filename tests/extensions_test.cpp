// Tests for the two extension transforms the paper names as planned work:
// block fetch (Wall 2001) and CISC two-array indexing (Section 3.3), plus
// their opt-in search dimension.
#include <gtest/gtest.h>

#include "arch/machine.h"
#include "fko/compiler.h"
#include "hil/lower.h"
#include "ir/printer.h"
#include "kernels/registry.h"
#include "kernels/tester.h"
#include "search/linesearch.h"
#include "sim/timer.h"

namespace ifko {
namespace {

using kernels::BlasOp;
using kernels::KernelSpec;

size_t countOp(const ir::Function& fn, ir::Op op) {
  size_t n = 0;
  for (const auto& bb : fn.blocks)
    for (const auto& in : bb.insts)
      if (in.op == op) ++n;
  return n;
}

ir::Function compileWith(const KernelSpec& spec, const opt::TuningParams& p,
                         const arch::MachineConfig& m) {
  fko::CompileOptions opts;
  opts.tuning = p;
  auto r = fko::compileKernel(spec.hilSource(), opts, m);
  EXPECT_TRUE(r.ok) << r.error;
  return std::move(r.fn);
}

// --- CISC indexing -----------------------------------------------------------

TEST(CiscIndexing, SharesOneIndexRegister) {
  KernelSpec spec{BlasOp::Copy, ir::Scal::F64};
  opt::TuningParams plain, cisc;
  cisc.ciscIndexing = true;
  // Compare instruction streams *before* regalloc/cleanup noise: count the
  // per-iteration integer updates in the final code.
  fko::CompileOptions po, co;
  po.tuning = plain;
  co.tuning = cisc;
  auto p = fko::compileKernel(spec.hilSource(), po, arch::opteron());
  auto c = fko::compileKernel(spec.hilSource(), co, arch::opteron());
  ASSERT_TRUE(p.ok && c.ok);
  // The CISC version indexes both arrays through one register: it executes
  // one fewer integer add per main-loop iteration.
  auto data = kernels::makeKernelData(spec, 1024);
  auto pr = sim::runDecoded(sim::decodeFunction(p.fn), *data.mem,
                            data.args(p.fn));
  auto data2 = kernels::makeKernelData(spec, 1024);
  auto cr = sim::runDecoded(sim::decodeFunction(c.fn), *data2.mem,
                            data2.args(c.fn));
  EXPECT_LT(cr.dynInsts, pr.dynInsts);
}

TEST(CiscIndexing, PreservesSemanticsAcrossKernels) {
  for (const auto& spec : kernels::allKernels()) {
    opt::TuningParams p;
    p.ciscIndexing = true;
    p.unroll = 4;
    auto fn = compileWith(spec, p, arch::p4e());
    for (int64_t n : {0, 1, 7, 63, 200}) {
      auto outcome = kernels::testKernel(spec, fn, n);
      ASSERT_TRUE(outcome.ok) << spec.name() << " n=" << n << ": "
                              << outcome.message;
    }
  }
}

TEST(CiscIndexing, SkipsSingleArrayKernels) {
  // asum has one array: nothing to share, the transform bails out cleanly.
  KernelSpec spec{BlasOp::Asum, ir::Scal::F32};
  opt::TuningParams p;
  p.ciscIndexing = true;
  auto fn = compileWith(spec, p, arch::p4e());
  EXPECT_TRUE(kernels::testKernel(spec, fn, 100).ok);
}

TEST(CiscIndexing, IsFasterForCopyOnOpteron) {
  // The paper's Opteron scopy observation: the extra pointer increment per
  // iteration costs measurable time out of cache.
  KernelSpec spec{BlasOp::Copy, ir::Scal::F32};
  opt::TuningParams plain;
  plain.nonTemporalWrites = true;
  opt::TuningParams cisc = plain;
  cisc.ciscIndexing = true;
  auto a = compileWith(spec, plain, arch::opteron());
  auto b = compileWith(spec, cisc, arch::opteron());
  auto ta = sim::timeKernel(arch::opteron(), a, spec, 20000,
                            sim::TimeContext::OutOfCache);
  auto tb = sim::timeKernel(arch::opteron(), b, spec, 20000,
                            sim::TimeContext::OutOfCache);
  EXPECT_LE(tb.cycles, ta.cycles);
}

// --- block fetch ---------------------------------------------------------------

TEST(BlockFetch, InsertsOneTouchPerLine) {
  KernelSpec spec{BlasOp::Dot, ir::Scal::F64};
  opt::TuningParams p;
  p.blockFetch = true;
  p.unroll = 8;  // 16 doubles = 2 lines per iteration, per array
  auto fn = compileWith(spec, p, arch::p4e());
  EXPECT_EQ(countOp(fn, ir::Op::Touch), 4u);  // 2 arrays x 2 lines
}

TEST(BlockFetch, PreservesSemantics) {
  for (auto op : {BlasOp::Copy, BlasOp::Dot, BlasOp::Swap}) {
    KernelSpec spec{op, ir::Scal::F64};
    opt::TuningParams p;
    p.blockFetch = true;
    p.unroll = 16;
    p.nonTemporalWrites = true;
    auto fn = compileWith(spec, p, arch::p4e());
    for (int64_t n : {0, 5, 64, 200}) {
      auto outcome = kernels::testKernel(spec, fn, n);
      ASSERT_TRUE(outcome.ok) << spec.name() << " n=" << n << ": "
                              << outcome.message;
    }
  }
}

TEST(BlockFetch, BeatsPlainWntCopyOutOfCacheOnP4E) {
  // The dcopy* story, now produced by the compiler instead of hand-written
  // assembly: grouped touches amortize the bus read-after-write turnaround.
  KernelSpec spec{BlasOp::Copy, ir::Scal::F64};
  opt::TuningParams wnt;
  wnt.nonTemporalWrites = true;
  wnt.unroll = 32;  // 64 doubles = 8 lines per iteration
  opt::TuningParams bf = wnt;
  bf.blockFetch = true;
  auto a = compileWith(spec, wnt, arch::p4e());
  auto b = compileWith(spec, bf, arch::p4e());
  auto ta =
      sim::timeKernel(arch::p4e(), a, spec, 20000, sim::TimeContext::OutOfCache);
  auto tb =
      sim::timeKernel(arch::p4e(), b, spec, 20000, sim::TimeContext::OutOfCache);
  EXPECT_LT(tb.cycles, ta.cycles);
}

// --- opt-in search dimension ------------------------------------------------

TEST(SearchExtensions, LedgerGainsBfAndCiscDimensions) {
  KernelSpec spec{BlasOp::Copy, ir::Scal::F64};
  auto cfg = search::SearchConfig::smoke();
  cfg.n = 8192;
  cfg.searchExtensions = true;
  auto r = search::tuneKernel(spec, arch::p4e(), cfg);
  ASSERT_TRUE(r.ok) << r.error;
  bool hasBf = false, hasCisc = false;
  for (const auto& d : r.ledger) {
    hasBf |= d.name == "BF";
    hasCisc |= d.name == "CISC";
  }
  EXPECT_TRUE(hasBf);
  EXPECT_TRUE(hasCisc);

  search::SearchConfig plain = cfg;
  plain.searchExtensions = false;
  auto base = search::tuneKernel(spec, arch::p4e(), plain);
  ASSERT_TRUE(base.ok);
  EXPECT_LE(r.bestCycles, base.bestCycles);
}

}  // namespace
}  // namespace ifko
