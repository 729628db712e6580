// Repeatable transforms, register allocation, and the full FKO pipeline.
#include <gtest/gtest.h>

#include "arch/machine.h"
#include "fko/compiler.h"
#include "hil/lower.h"
#include "ir/builder.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "kernels/registry.h"
#include "kernels/tester.h"
#include "opt/repeatable.h"
#include "support/rng.h"

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

// ---------------------------------------------------------------------------
// Repeatable transform units.

TEST(Repeatable, CopyPropagationForwardsSources) {
  ir::Function fn;
  fn.name = "cp";
  ir::Builder b(fn, fn.addBlock());
  ir::Reg a = b.imovi(5);
  ir::Reg c = b.imov(a);       // c = a
  ir::Reg d = b.iaddi(c, 1);   // should become d = a + 1
  b.emit({.op = ir::Op::ICmpI, .src1 = d, .imm = 0});
  b.ret();
  EXPECT_TRUE(opt::copyPropagation(fn));
  EXPECT_EQ(fn.blocks[0].insts[2].src1, a);
}

TEST(Repeatable, DceRemovesDeadPureInstructions) {
  ir::Function fn;
  fn.name = "dce";
  ir::Builder b(fn, fn.addBlock());
  (void)b.imovi(1);  // dead
  ir::Reg live = b.imovi(2);
  b.emit({.op = ir::Op::ICmpI, .src1 = live, .imm = 0});
  b.ret();
  EXPECT_TRUE(opt::deadCodeElim(fn));
  EXPECT_EQ(fn.blocks[0].insts.size(), 3u);
}

TEST(Repeatable, DceRemovesDeadInductionCycle) {
  // i = 0; loop { i = i + 1 } with i otherwise unused.
  ir::Function fn;
  fn.name = "ind";
  int32_t b0 = fn.addBlock();
  int32_t b1 = fn.addBlock();
  int32_t b2 = fn.addBlock();
  ir::Reg n = fn.newIntReg();
  fn.params.push_back({.name = "N", .kind = ir::ParamKind::Int, .reg = n});
  ir::Builder hb(fn, b0);
  ir::Reg i = hb.imovi(0);
  ir::Reg cnt = hb.imov(n);
  hb.jmp(b1);
  ir::Builder lb(fn, b1);
  lb.emit({.op = ir::Op::IAddI, .dst = i, .src1 = i, .imm = 1});
  lb.emit({.op = ir::Op::IAddCC, .dst = cnt, .src1 = cnt, .imm = -1});
  lb.jcc(ir::Cond::GT, b1);
  ir::Builder eb(fn, b2);
  eb.ret();
  opt::runRepeatable(fn);
  EXPECT_EQ(countOp(fn, ir::Op::IAddI), 0u);  // dead induction removed
  EXPECT_EQ(countOp(fn, ir::Op::IAddCC), 1u);
}

TEST(Repeatable, PeepholeFoldsLoadIntoAdd) {
  ir::Function fn;
  fn.name = "pe";
  ir::Reg p = fn.newIntReg();
  fn.params.push_back({.name = "X", .kind = ir::ParamKind::PtrF64, .reg = p});
  ir::Builder b(fn, fn.addBlock());
  ir::Reg acc = b.fldi(ir::Scal::F64, 0.0);
  ir::Reg t = b.fld(ir::Scal::F64, ir::mem(p, 8));
  b.emit({.op = ir::Op::FAdd, .type = ir::Scal::F64, .dst = acc, .src1 = acc,
          .src2 = t});
  b.retVal(acc);
  fn.retType = ir::RetType::F64;
  EXPECT_TRUE(opt::peepholeLoadOp(fn));
  EXPECT_EQ(countOp(fn, ir::Op::FLd), 0u);
  EXPECT_EQ(countOp(fn, ir::Op::FAddM), 1u);
  EXPECT_TRUE(ir::verify(fn).empty());
}

TEST(Repeatable, PeepholeRespectsInterveningStores) {
  ir::Function fn;
  fn.name = "pe2";
  ir::Reg p = fn.newIntReg();
  fn.params.push_back({.name = "X", .kind = ir::ParamKind::PtrF64, .reg = p});
  ir::Builder b(fn, fn.addBlock());
  ir::Reg acc = b.fldi(ir::Scal::F64, 0.0);
  ir::Reg t = b.fld(ir::Scal::F64, ir::mem(p, 8));
  b.fst(ir::Scal::F64, ir::mem(p, 8), acc);  // may alias: blocks the fold
  b.emit({.op = ir::Op::FAdd, .type = ir::Scal::F64, .dst = acc, .src1 = acc,
          .src2 = t});
  b.retVal(acc);
  fn.retType = ir::RetType::F64;
  EXPECT_FALSE(opt::peepholeLoadOp(fn));
}

TEST(Repeatable, BranchChainingSkipsEmptyBlocks) {
  ir::Function fn;
  fn.name = "bc";
  int32_t b0 = fn.addBlock();
  int32_t b1 = fn.addBlock();  // empty, falls through
  int32_t b2 = fn.addBlock();
  ir::Builder b(fn, b0);
  b.jmp(b1);
  ir::Builder b2b(fn, b2);
  b2b.ret();
  EXPECT_TRUE(opt::branchChaining(fn));
  EXPECT_EQ(fn.blocks[0].insts.back().label, b2);
}

TEST(Repeatable, UselessJumpToNextBlockRemoved) {
  ir::Function fn;
  fn.name = "uj";
  int32_t b0 = fn.addBlock();
  int32_t b1 = fn.addBlock();
  ir::Builder b(fn, b0);
  b.jmp(b1);
  ir::Builder b1b(fn, b1);
  b1b.ret();
  EXPECT_TRUE(opt::uselessJumpElim(fn));
  EXPECT_TRUE(fn.blocks[0].insts.empty());
}

TEST(Repeatable, MergesSinglePredFallthrough) {
  ir::Function fn;
  fn.name = "mg";
  int32_t b0 = fn.addBlock();
  int32_t b1 = fn.addBlock();
  ir::Builder b(fn, b0);
  (void)b.imovi(1);
  ir::Builder b1b(fn, b1);
  b1b.ret();
  EXPECT_TRUE(opt::mergeBlocks(fn));
  EXPECT_EQ(fn.blocks.size(), 1u);
  EXPECT_EQ(fn.blocks[0].insts.size(), 2u);
}

TEST(Repeatable, RemovesUnreachableBlocks) {
  ir::Function fn;
  fn.name = "ur";
  int32_t b0 = fn.addBlock();
  fn.addBlock();  // unreachable
  ir::Builder b(fn, b0);
  b.ret();
  EXPECT_TRUE(opt::removeUnreachable(fn));
  EXPECT_EQ(fn.blocks.size(), 1u);
}

// ---------------------------------------------------------------------------
// Register allocation.

TEST(RegAlloc, SimpleFunctionNeedsNoSpills) {
  kernels::KernelSpec spec{BlasOp::Dot, ir::Scal::F64};
  DiagnosticEngine d;
  auto fn = hil::compileHil(spec.hilSource(), d);
  ASSERT_TRUE(fn.has_value());
  auto ra = opt::allocateRegisters(*fn);
  ASSERT_TRUE(ra.ok) << ra.error;
  EXPECT_EQ(ra.spillSlots, 0);
  EXPECT_TRUE(fn->regAllocated);
  EXPECT_TRUE(ir::verify(*fn).empty());
  // Still computes the right answer.
  auto outcome = kernels::testKernel(spec, *fn, 100);
  EXPECT_TRUE(outcome.ok) << outcome.message;
}

TEST(RegAlloc, HighPressureSpillsAndStaysCorrect) {
  // Sum 20 simultaneously-live FP values: must spill on 8 xmm registers.
  ir::Function fn;
  fn.name = "pressure";
  ir::Builder b(fn, fn.addBlock());
  std::vector<ir::Reg> vals;
  for (int i = 0; i < 20; ++i) vals.push_back(b.fldi(ir::Scal::F64, i + 1));
  ir::Reg acc = vals[0];
  for (int i = 1; i < 20; ++i) acc = b.fadd(ir::Scal::F64, acc, vals[i]);
  b.retVal(acc);
  fn.retType = ir::RetType::F64;

  for (auto kind : {opt::RegAllocKind::LinearScan, opt::RegAllocKind::Basic}) {
    ir::Function copy = fn;
    auto ra = opt::allocateRegisters(copy, kind);
    ASSERT_TRUE(ra.ok) << ra.error;
    EXPECT_GT(ra.spillSlots, 0);
    EXPECT_TRUE(ir::verify(copy).empty());
    sim::Memory mem(1 << 16);
    auto r = sim::runDecoded(sim::decodeFunction(copy), mem, {});
    ASSERT_TRUE(r.fpResult.has_value());
    EXPECT_DOUBLE_EQ(*r.fpResult, 210.0);  // 1+2+...+20
  }
}

TEST(RegAlloc, AllKernelsAllocateWithoutSpills) {
  // The default-parameter kernels fit comfortably in 8+8 registers.
  for (const auto& spec : kernels::allKernels()) {
    DiagnosticEngine d;
    auto fn = hil::compileHil(spec.hilSource(), d);
    ASSERT_TRUE(fn.has_value());
    auto ra = opt::allocateRegisters(*fn);
    ASSERT_TRUE(ra.ok) << spec.name() << ": " << ra.error;
    EXPECT_EQ(ra.spillSlots, 0) << spec.name();
  }
}

// ---------------------------------------------------------------------------
// Full pipeline.

TEST(Fko, AnalysisReportMatchesPaper) {
  kernels::KernelSpec dot{BlasOp::Dot, ir::Scal::F32};
  auto rep = fko::analyzeKernel(dot.hilSource(), arch::p4e());
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.cacheLevels, 2);
  EXPECT_EQ(rep.lineBytes[0], 64);
  EXPECT_TRUE(rep.vectorizable);
  EXPECT_EQ(rep.vecLanes, 4);
  EXPECT_EQ(rep.numAccumulators, 1);
  ASSERT_EQ(rep.arrays.size(), 2u);
  EXPECT_TRUE(rep.arrays[0].prefetchable);
  EXPECT_EQ(rep.prefKinds.size(), 3u);  // no prefetchw on P4E

  kernels::KernelSpec iamax{BlasOp::Iamax, ir::Scal::F64};
  auto rep2 = fko::analyzeKernel(iamax.hilSource(), arch::opteron());
  ASSERT_TRUE(rep2.ok);
  EXPECT_FALSE(rep2.vectorizable);
  EXPECT_EQ(rep2.prefKinds.size(), 4u);
}

TEST(Fko, CompileRejectsBadSource) {
  fko::CompileOptions opts;
  auto r = fko::compileKernel("ROUTINE broken(", opts, arch::p4e());
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("front end"), std::string::npos);
}

class FullPipeline
    : public testing::TestWithParam<std::tuple<KernelSpec, int>> {};

opt::TuningParams pipelineParams(int idx) {
  opt::TuningParams p;
  switch (idx) {
    case 0: break;  // FKO-ish defaults, no prefetch
    case 1:
      p.unroll = 4;
      p.accumExpand = 2;
      p.prefetch["X"] = {true, ir::PrefKind::NTA, 1024};
      break;
    case 2:
      p.simdVectorize = false;
      p.unroll = 8;
      p.nonTemporalWrites = true;
      p.prefetch["X"] = {true, ir::PrefKind::T0, 512};
      p.prefetch["Y"] = {true, ir::PrefKind::NTA, 256};
      break;
    case 3:
      p.unroll = 16;  // high register pressure
      p.accumExpand = 8;
      p.optimizeLoopControl = false;
      break;
    default: break;
  }
  return p;
}

TEST_P(FullPipeline, CompiledKernelIsCorrect) {
  auto [spec, idx] = GetParam();
  fko::CompileOptions opts;
  opts.tuning = pipelineParams(idx);
  auto r = fko::compileKernel(spec.hilSource(), opts, arch::opteron());
  ASSERT_TRUE(r.ok) << spec.name() << ": " << r.error;
  EXPECT_TRUE(r.fn.regAllocated);
  for (int64_t n : {0, 1, 7, 17, 64, 100, 250}) {
    auto outcome = kernels::testKernel(spec, r.fn, n);
    ASSERT_TRUE(outcome.ok)
        << spec.name() << " n=" << n << " idx=" << idx << ": "
        << outcome.message;
  }
}

std::string pipeName(
    const testing::TestParamInfo<std::tuple<KernelSpec, int>>& info) {
  return std::get<0>(info.param).name() + "_p" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, FullPipeline,
    testing::Combine(testing::ValuesIn(kernels::allKernels()),
                     testing::Range(0, 4)),
    pipeName);

TEST(FullPipelineFuzz, RandomParamsThroughWholePipeline) {
  SplitMix64 rng(777);
  const auto& specs = kernels::allKernels();
  for (int iter = 0; iter < 40; ++iter) {
    const auto& spec = specs[rng.below(specs.size())];
    fko::CompileOptions opts;
    opts.tuning.simdVectorize = rng.below(2) == 0;
    opts.tuning.unroll = static_cast<int>(rng.below(16)) + 1;
    opts.tuning.accumExpand = static_cast<int>(rng.below(6)) + 1;
    opts.tuning.nonTemporalWrites = rng.below(2) == 0;
    opts.tuning.optimizeLoopControl = rng.below(2) == 0;
    opts.regalloc = rng.below(2) == 0 ? opt::RegAllocKind::LinearScan
                                      : opt::RegAllocKind::Basic;
    if (rng.below(2) == 0)
      opts.tuning.prefetch["X"] = {true,
                                   static_cast<ir::PrefKind>(rng.below(4)),
                                   static_cast<int>(rng.below(40)) * 64};
    auto r = fko::compileKernel(spec.hilSource(), opts, arch::p4e());
    ASSERT_TRUE(r.ok) << spec.name() << ": " << r.error;
    int64_t n = static_cast<int64_t>(rng.below(400));
    auto outcome = kernels::testKernel(spec, r.fn, n, rng.next());
    ASSERT_TRUE(outcome.ok) << spec.name() << " n=" << n << " "
                            << opts.tuning.str() << ": " << outcome.message;
  }
}

}  // namespace
}  // namespace ifko
