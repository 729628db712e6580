#include <gtest/gtest.h>


#include "ir/builder.h"
#include "ir/cfg.h"
#include "ir/printer.h"
#include "ir/verifier.h"

namespace ifko::ir {
namespace {

Function makeEmptyFn() {
  Function fn;
  fn.name = "t";
  return fn;
}

TEST(Inst, OpInfoBasics) {
  EXPECT_EQ(opInfo(Op::FAdd).numSrcs, 2);
  EXPECT_TRUE(opInfo(Op::FAdd).hasDst);
  EXPECT_TRUE(opInfo(Op::FLd).readsMem);
  EXPECT_TRUE(opInfo(Op::VSt).writesMem);
  EXPECT_TRUE(opInfo(Op::Jmp).isTerminator);
  EXPECT_FALSE(opInfo(Op::Jcc).isTerminator);  // may fall through
  EXPECT_TRUE(opInfo(Op::Jcc).isBranch);
  EXPECT_TRUE(opInfo(Op::ICmp).setsFlags);
  EXPECT_TRUE(opInfo(Op::VAdd).isVector);
  EXPECT_EQ(opInfo(Op::VMovMsk).dstKind, RegKind::Int);
  EXPECT_TRUE(touchesMem(Op::Pref));
  EXPECT_FALSE(touchesMem(Op::FAdd));
}

TEST(Inst, CondNegation) {
  EXPECT_EQ(negate(Cond::EQ), Cond::NE);
  EXPECT_EQ(negate(Cond::LT), Cond::GE);
  EXPECT_EQ(negate(Cond::GE), Cond::LT);
  EXPECT_EQ(negate(Cond::LE), Cond::GT);
}

TEST(Inst, TypeNames) {
  EXPECT_EQ(scalBytes(Scal::F32), 4);
  EXPECT_EQ(scalBytes(Scal::F64), 8);
  EXPECT_EQ(vecLanes(Scal::F32), 4);
  EXPECT_EQ(vecLanes(Scal::F64), 2);
}

TEST(Reg, VirtualVsPhysical) {
  Reg v = Reg::intReg(kVirtBase + 3);
  EXPECT_TRUE(v.isVirtual());
  EXPECT_FALSE(v.isPhysical());
  Reg p = Reg::fpReg(2);
  EXPECT_TRUE(p.isPhysical());
  EXPECT_EQ(p.str(), "x2");
  EXPECT_EQ(v.str(), "rv3");
  EXPECT_FALSE(Reg::none().valid());
}

TEST(Function, BlockManagement) {
  Function fn = makeEmptyFn();
  int32_t a = fn.addBlock();
  int32_t b = fn.addBlock();
  EXPECT_NE(a, b);
  EXPECT_EQ(fn.layoutIndex(a), 0u);
  EXPECT_EQ(fn.layoutIndex(b), 1u);
  int32_t c = fn.insertBlockAt(1);
  EXPECT_EQ(fn.layoutIndex(c), 1u);
  EXPECT_EQ(fn.layoutIndex(b), 2u);
  fn.removeBlock(c);
  EXPECT_EQ(fn.layoutIndex(b), 1u);
}

TEST(Builder, EmitsIntoBlock) {
  Function fn = makeEmptyFn();
  int32_t b0 = fn.addBlock();
  Builder b(fn, b0);
  Reg x = b.imovi(5);
  Reg y = b.iaddi(x, 2);
  b.icmpi(y, 7);
  b.ret();
  EXPECT_EQ(fn.block(b0).insts.size(), 4u);
  EXPECT_EQ(fn.block(b0).insts[0].op, Op::IMovI);
  EXPECT_TRUE(fn.block(b0).hardTerminator() != nullptr);
}

TEST(Printer, ContainsBlocksAndOps) {
  Function fn = makeEmptyFn();
  int32_t b0 = fn.addBlock();
  Builder b(fn, b0);
  Reg p = fn.newIntReg();
  fn.params.push_back({.name = "X", .kind = ParamKind::PtrF64, .reg = p});
  Reg v = b.fld(Scal::F64, mem(p, 8));
  b.fst(Scal::F64, mem(p, 16), v);
  b.ret();
  std::string s = print(fn);
  EXPECT_NE(s.find("bb0:"), std::string::npos);
  EXPECT_NE(s.find("fld.f64"), std::string::npos);
  EXPECT_NE(s.find("+ 8"), std::string::npos);
}

TEST(Cfg, SuccessorsOfConditional) {
  Function fn = makeEmptyFn();
  int32_t b0 = fn.addBlock();
  int32_t b1 = fn.addBlock();
  int32_t b2 = fn.addBlock();
  Builder b(fn, b0);
  Reg x = b.imovi(1);
  b.icmpi(x, 0);
  b.jcc(Cond::EQ, b2);
  Builder b1b(fn, b1);
  b1b.ret();
  Builder b2b(fn, b2);
  b2b.ret();
  const Cfg cfg = buildCfg(fn);
  const auto& succ = cfg.succs[0];
  ASSERT_EQ(succ.n, 2);
  EXPECT_EQ(fn.blocks[succ.pos[0]].id, b2);  // taken target first
  EXPECT_EQ(fn.blocks[succ.pos[1]].id, b1);  // fall-through
  EXPECT_EQ(cfg.preds[fn.layoutIndex(b1)].size(), 1u);
  EXPECT_EQ(cfg.preds[fn.layoutIndex(b2)].size(), 1u);
}

TEST(Cfg, RetHasNoSuccessors) {
  Function fn = makeEmptyFn();
  int32_t b0 = fn.addBlock();
  fn.addBlock();
  Builder b(fn, b0);
  b.ret();
  EXPECT_EQ(buildCfg(fn).succs[0].n, 0);
}

TEST(Verifier, AcceptsMinimalFunction) {
  Function fn = makeEmptyFn();
  Builder b(fn, fn.addBlock());
  b.ret();
  EXPECT_TRUE(verify(fn).empty());
}

TEST(Verifier, RejectsFallOffEnd) {
  Function fn = makeEmptyFn();
  Builder b(fn, fn.addBlock());
  b.imovi(1);
  auto problems = verify(fn);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("falls off"), std::string::npos);
}

TEST(Verifier, RejectsBranchToUnknownBlock) {
  Function fn = makeEmptyFn();
  Builder b(fn, fn.addBlock());
  b.jmp(99);
  auto problems = verify(fn);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("unknown block"), std::string::npos);
}

TEST(Verifier, RejectsBranchNotLast) {
  Function fn = makeEmptyFn();
  int32_t b0 = fn.addBlock();
  Builder b(fn, b0);
  b.jmp(b0);
  b.imovi(1);
  b.ret();
  auto problems = verify(fn);
  ASSERT_FALSE(problems.empty());
}

TEST(Verifier, RejectsWrongRegisterClass) {
  Function fn = makeEmptyFn();
  Builder b(fn, fn.addBlock());
  Reg i = fn.newIntReg();
  // FAdd on integer registers is malformed.
  b.emit({.op = Op::FAdd, .type = Scal::F64, .dst = i, .src1 = i, .src2 = i});
  b.ret();
  auto problems = verify(fn);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("register class"), std::string::npos);
}

TEST(Verifier, RejectsUseBeforeDef) {
  Function fn = makeEmptyFn();
  Builder b(fn, fn.addBlock());
  Reg x = fn.newIntReg();
  b.iaddi(x, 1);  // x never defined
  b.ret();
  auto problems = verify(fn);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("before definition"), std::string::npos);
}

TEST(Verifier, AcceptsParamUse) {
  Function fn = makeEmptyFn();
  Reg p = fn.newIntReg();
  fn.params.push_back({.name = "N", .kind = ParamKind::Int, .reg = p});
  Builder b(fn, fn.addBlock());
  b.iaddi(p, 1);
  b.ret();
  EXPECT_TRUE(verify(fn).empty());
}

TEST(Verifier, DefOnOnePathOnlyIsRejected) {
  // bb0: jcc -> bb2 ; bb1: def x ; bb2: use x  (x undefined when jcc taken)
  Function fn = makeEmptyFn();
  int32_t b0 = fn.addBlock();
  int32_t b1 = fn.addBlock();
  int32_t b2 = fn.addBlock();
  Reg n = fn.newIntReg();
  fn.params.push_back({.name = "N", .kind = ParamKind::Int, .reg = n});
  Builder b(fn, b0);
  b.icmpi(n, 0);
  b.jcc(Cond::EQ, b2);
  Builder bb1(fn, b1);
  Reg x = fn.newIntReg();
  bb1.emit({.op = Op::IMovI, .dst = x, .imm = 3});
  Builder bb2(fn, b2);
  bb2.iaddi(x, 1);
  bb2.ret();
  auto problems = verify(fn);
  ASSERT_FALSE(problems.empty());
}

TEST(Verifier, DefOnOneDiamondArmIsFlagged) {
  // bb0: jcc -> bb2 ; bb1: def x, jmp bb3 ; bb2: no def ; bb3: use x
  Function fn = makeEmptyFn();
  int32_t b0 = fn.addBlock();
  int32_t b1 = fn.addBlock();
  int32_t b2 = fn.addBlock();
  int32_t b3 = fn.addBlock();
  Reg n = fn.newIntReg();
  fn.params.push_back({.name = "N", .kind = ParamKind::Int, .reg = n});
  Builder b(fn, b0);
  b.icmpi(n, 0);
  b.jcc(Cond::EQ, b2);
  Builder left(fn, b1);
  Reg x = fn.newIntReg();
  left.emit({.op = Op::IMovI, .dst = x, .imm = 3});
  left.jmp(b3);
  Builder right(fn, b2);
  right.imovi(4);
  Builder join(fn, b3);
  join.iaddi(x, 1);
  join.ret();
  EXPECT_EQ(verify(fn),
            std::vector<std::string>{
                "bb3: src1 possibly used before definition in: "
                "iaddi rv3, rv1, 1"});
}

TEST(Verifier, DefOnlyInLatchUsedInHeaderIsFlagged) {
  // bb0 -> bb1 (header: use x) -> bb2 (latch: def x, backedge) -> bb3
  Function fn = makeEmptyFn();
  int32_t b0 = fn.addBlock();
  int32_t b1 = fn.addBlock();
  int32_t b2 = fn.addBlock();
  int32_t b3 = fn.addBlock();
  Reg n = fn.newIntReg();
  fn.params.push_back({.name = "N", .kind = ParamKind::Int, .reg = n});
  Builder entry(fn, b0);
  Reg i = entry.imovi(0);
  Reg x = fn.newIntReg();
  Builder header(fn, b1);
  header.iaddi(x, 1);
  Builder latch(fn, b2);
  latch.emit({.op = Op::IMovI, .dst = x, .imm = 3});
  latch.emit({.op = Op::IAddI, .dst = i, .src1 = i, .imm = 1});
  latch.icmp(i, n);
  latch.jcc(Cond::LT, b1);
  Builder exit(fn, b3);
  exit.ret();
  EXPECT_EQ(verify(fn),
            std::vector<std::string>{
                "bb1: src1 possibly used before definition in: "
                "iaddi rv3, rv2, 1"});
}

TEST(Verifier, UseInUnreachableBlockIsSkipped) {
  Function fn = makeEmptyFn();
  Builder b(fn, fn.addBlock());
  b.ret();
  Builder dead(fn, fn.addBlock());
  dead.iaddi(fn.newIntReg(), 1);  // never defined, but never reached
  dead.ret();
  EXPECT_EQ(verify(fn), std::vector<std::string>{});
}

TEST(Verifier, ParamRegistersUsedAtEntryAreClean) {
  Function fn = makeEmptyFn();
  Reg x = fn.newIntReg();
  Reg n = fn.newIntReg();
  Reg alpha = fn.newFpReg();
  fn.params.push_back({.name = "X", .kind = ParamKind::PtrF64, .reg = x});
  fn.params.push_back({.name = "N", .kind = ParamKind::Int, .reg = n});
  fn.params.push_back({.name = "alpha", .kind = ParamKind::ScalF64, .reg = alpha});
  fn.retType = RetType::F64;
  Builder b(fn, fn.addBlock());
  Reg v = b.fld(Scal::F64, memIdx(x, n, 8, 0));
  b.retVal(b.fmul(Scal::F64, v, alpha));
  EXPECT_EQ(verify(fn), std::vector<std::string>{});
}

TEST(Verifier, RejectsVirtualRegAfterRegalloc) {
  Function fn = makeEmptyFn();
  fn.regAllocated = true;
  Builder b(fn, fn.addBlock());
  Reg v = fn.newIntReg();  // virtual
  b.emit({.op = Op::IMovI, .dst = v, .imm = 1});
  b.ret();
  auto problems = verify(fn);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("virtual register after regalloc"),
            std::string::npos);
}

TEST(Verifier, RejectsRetWithoutValueWhenTyped) {
  Function fn = makeEmptyFn();
  fn.retType = RetType::Int;
  Builder b(fn, fn.addBlock());
  b.ret();
  auto problems = verify(fn);
  ASSERT_FALSE(problems.empty());
}

}  // namespace
}  // namespace ifko::ir
