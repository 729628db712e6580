// Optimization-layer detail tests: liveness, allocator quality comparison,
// prefetch scheduling, parameter serialization.
#include <gtest/gtest.h>

#include "arch/machine.h"
#include "fko/compiler.h"
#include "hil/lower.h"
#include "ir/builder.h"
#include "kernels/registry.h"
#include "kernels/tester.h"
#include "opt/liveness.h"
#include "opt/loop_xform.h"
#include "opt/regalloc.h"
#include "sim/timer.h"

namespace ifko::opt {
namespace {

using ir::Builder;
using ir::Cond;
using ir::Op;
using ir::Reg;
using ir::Scal;

TEST(Liveness, StraightLine) {
  ir::Function fn;
  fn.name = "l";
  Builder b(fn, fn.addBlock());
  Reg a = b.imovi(1);
  Reg c = b.iaddi(a, 2);
  b.retVal(c);
  fn.retType = ir::RetType::Int;
  auto lv = computeLiveness(fn);
  size_t bb = fn.layoutIndex(fn.blocks[0].id);
  EXPECT_TRUE(lv.liveIn[bb].empty());
  EXPECT_TRUE(lv.liveOut[bb].empty());
}

TEST(Liveness, AcrossLoopBackedge) {
  // acc defined before the loop and accumulated inside: live around the
  // backedge and out of the loop.
  ir::Function fn;
  fn.name = "loop";
  int32_t b0 = fn.addBlock();
  int32_t b1 = fn.addBlock();
  int32_t b2 = fn.addBlock();
  Reg n = fn.newIntReg();
  fn.params.push_back({.name = "N", .kind = ir::ParamKind::Int, .reg = n});
  Builder e(fn, b0);
  Reg acc = e.fldi(Scal::F64, 0.0);
  Reg cnt = e.imov(n);
  Builder l(fn, b1);
  Reg one = l.fldi(Scal::F64, 1.0);
  l.emit({.op = Op::FAdd, .type = Scal::F64, .dst = acc, .src1 = acc,
          .src2 = one});
  l.emit({.op = Op::IAddCC, .dst = cnt, .src1 = cnt, .imm = -1});
  l.jcc(Cond::GT, b1);
  Builder x(fn, b2);
  x.retVal(acc);
  fn.retType = ir::RetType::F64;

  auto lv = computeLiveness(fn);
  const size_t p1 = fn.layoutIndex(b1), p2 = fn.layoutIndex(b2);
  EXPECT_TRUE(lv.liveIn[p1].test(lv.regs(acc)));
  EXPECT_TRUE(lv.liveOut[p1].test(lv.regs(acc)));
  EXPECT_TRUE(lv.liveIn[p2].test(lv.regs(acc)));
  EXPECT_FALSE(lv.liveOut[p2].test(lv.regs(acc)));
  EXPECT_TRUE(lv.liveIn[p1].test(lv.regs(cnt)));
  EXPECT_FALSE(lv.liveIn[p2].test(lv.regs(cnt)));
}

TEST(Liveness, UsedRegsCoversMemOperands) {
  ir::Function fn;
  fn.name = "m";
  Reg base = fn.newIntReg();
  Reg idx = fn.newIntReg();
  ir::Inst ld{.op = Op::FLd, .type = Scal::F64, .dst = fn.newFpReg(),
              .mem = ir::memIdx(base, idx, 8, 0)};
  auto used = usedRegs(ld);
  ASSERT_EQ(used.size(), 2u);
  EXPECT_EQ(used[0], base);
  EXPECT_EQ(used[1], idx);
  EXPECT_EQ(definedReg(ld), ld.dst);
}

TEST(RegAlloc, LoopAwareAllocatorSpillsOutsideTheLoop) {
  // High pressure with a loop: the loop-aware allocator must produce code
  // at least as fast as the Basic allocator (it spills cold values first).
  kernels::KernelSpec spec{kernels::BlasOp::Dot, ir::Scal::F64};
  fko::CompileOptions ls, basic;
  ls.tuning.unroll = 16;
  ls.tuning.accumExpand = 8;
  basic.tuning = ls.tuning;
  ls.regalloc = RegAllocKind::LinearScan;
  basic.regalloc = RegAllocKind::Basic;
  auto a = fko::compileKernel(spec.hilSource(), ls, arch::opteron());
  auto b = fko::compileKernel(spec.hilSource(), basic, arch::opteron());
  ASSERT_TRUE(a.ok && b.ok) << a.error << b.error;
  // Both are correct...
  EXPECT_TRUE(kernels::testKernel(spec, a.fn, 300).ok);
  EXPECT_TRUE(kernels::testKernel(spec, b.fn, 300).ok);
  // ...and the loop-aware one is not slower in cache (where spill traffic
  // dominates).
  auto ta = sim::timeKernel(arch::opteron(), a.fn, spec, 1024,
                            sim::TimeContext::InL2);
  auto tb = sim::timeKernel(arch::opteron(), b.fn, spec, 1024,
                            sim::TimeContext::InL2);
  EXPECT_LE(ta.cycles, tb.cycles + tb.cycles / 10);
}

TEST(PrefSched, TopAndSpreadPlaceTheSameCount) {
  kernels::KernelSpec spec{kernels::BlasOp::Asum, ir::Scal::F64};
  DiagnosticEngine d;
  auto lowered = hil::compileHil(spec.hilSource(), d);
  ASSERT_TRUE(lowered.has_value());
  for (auto sched : {PrefSched::Top, PrefSched::Spread}) {
    TuningParams p;
    p.unroll = 16;  // 32 doubles = 4 lines/iter
    p.prefetch["X"] = {true, ir::PrefKind::NTA, 512};
    p.prefSched = sched;
    std::string err;
    auto out = applyFundamentalTransforms(*lowered, p, arch::p4e(), &err);
    ASSERT_TRUE(out.has_value()) << err;
    size_t prefs = 0;
    for (const auto& bb : out->blocks)
      for (const auto& in : bb.insts) prefs += in.op == Op::Pref;
    EXPECT_EQ(prefs, 4u);
    EXPECT_TRUE(kernels::testKernel(spec, *out, 200).ok);
  }
}

TEST(TuningParams, StringKeyDistinguishesEveryDimension) {
  // The search memoizes on str(): every tunable field must appear.
  TuningParams base;
  std::vector<TuningParams> variants;
  for (int i = 0; i < 8; ++i) variants.push_back(base);
  variants[0].simdVectorize = false;
  variants[1].unroll = 7;
  variants[2].accumExpand = 3;
  variants[3].nonTemporalWrites = true;
  variants[4].optimizeLoopControl = false;
  variants[5].prefetch["X"] = {true, ir::PrefKind::T1, 640};
  variants[6].blockFetch = true;
  variants[7].ciscIndexing = true;
  for (size_t i = 0; i < variants.size(); ++i) {
    EXPECT_NE(variants[i].str(), base.str()) << i;
    for (size_t j = i + 1; j < variants.size(); ++j)
      EXPECT_NE(variants[i].str(), variants[j].str()) << i << "," << j;
  }
}

TEST(TuningParams, PrefetchKindAndDistanceInKey) {
  TuningParams a, b;
  a.prefetch["X"] = {true, ir::PrefKind::NTA, 512};
  b.prefetch["X"] = {true, ir::PrefKind::T0, 512};
  EXPECT_NE(a.str(), b.str());
  b.prefetch["X"] = {true, ir::PrefKind::NTA, 1024};
  EXPECT_NE(a.str(), b.str());
}

}  // namespace
}  // namespace ifko::opt
