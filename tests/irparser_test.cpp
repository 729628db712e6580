// Round-trip property: parse(print(fn)) reconstructs the function, for
// every kernel at every interesting pipeline stage, and the reconstruction
// is operationally identical (same printed form, verifies, and computes the
// same results on the functional simulator).
#include <gtest/gtest.h>

#include "arch/machine.h"
#include "atlas/handkernels.h"
#include "fko/compiler.h"
#include "hil/lower.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "kernels/registry.h"
#include "kernels/tester.h"

namespace ifko::ir {
namespace {

void expectRoundTrip(const Function& fn, const std::string& label) {
  std::string text = print(fn);
  std::string error;
  auto back = parse(text, &error);
  ASSERT_TRUE(back.has_value()) << label << ": " << error << "\n" << text;
  EXPECT_EQ(print(*back), text) << label;
  EXPECT_EQ(back->name, fn.name);
  EXPECT_EQ(back->retType, fn.retType);
  EXPECT_EQ(back->regAllocated, fn.regAllocated);
  EXPECT_EQ(back->numSpillSlots, fn.numSpillSlots);
  EXPECT_EQ(back->params.size(), fn.params.size());
  EXPECT_EQ(back->loop.valid, fn.loop.valid);
  if (fn.loop.valid) {
    EXPECT_EQ(back->loop.header, fn.loop.header);
    EXPECT_EQ(back->loop.latch, fn.loop.latch);
    EXPECT_EQ(back->loop.dir, fn.loop.dir);
  }
  EXPECT_EQ(verify(*back).size(), verify(fn).size()) << label;
}

TEST(IrParser, RoundTripsEveryLoweredKernel) {
  for (const auto& spec : kernels::extendedKernels()) {
    DiagnosticEngine d;
    auto fn = hil::compileHil(spec.hilSource(), d);
    ASSERT_TRUE(fn.has_value());
    expectRoundTrip(*fn, spec.name() + " (lowered)");
  }
}

TEST(IrParser, RoundTripsOptimizedAndAllocatedKernels) {
  for (const auto& spec : kernels::allKernels()) {
    fko::CompileOptions opts;
    opts.tuning.unroll = 4;
    opts.tuning.accumExpand = 2;
    opts.tuning.prefetch["X"] = {true, ir::PrefKind::T0, 512};
    opts.tuning.nonTemporalWrites = true;
    auto r = fko::compileKernel(spec.hilSource(), opts, arch::opteron());
    ASSERT_TRUE(r.ok) << spec.name();
    expectRoundTrip(r.fn, spec.name() + " (compiled)");
  }
}

TEST(IrParser, RoundTripsHandWrittenKernels) {
  expectRoundTrip(atlas::iamaxSimd(Scal::F32), "iamax_simd/f32");
  expectRoundTrip(atlas::copyBlockFetch(Scal::F64), "blockfetch");
  expectRoundTrip(atlas::copyCisc(Scal::F32, true), "cisc_nt");
}

TEST(IrParser, ParsedKernelComputesIdentically) {
  kernels::KernelSpec spec{kernels::BlasOp::Dot, ir::Scal::F64};
  fko::CompileOptions opts;
  opts.tuning.unroll = 3;
  auto r = fko::compileKernel(spec.hilSource(), opts, arch::p4e());
  ASSERT_TRUE(r.ok);
  std::string error;
  auto back = parse(print(r.fn), &error);
  ASSERT_TRUE(back.has_value()) << error;
  auto outcome = kernels::testKernel(spec, *back, 100);
  EXPECT_TRUE(outcome.ok) << outcome.message;
}

TEST(IrParser, RejectsGarbage) {
  std::string error;
  EXPECT_FALSE(parse("", &error).has_value());
  EXPECT_FALSE(parse("not a function", &error).has_value());
  EXPECT_FALSE(parse("func f()\n  imovi rv0, 1\n", &error).has_value());
  EXPECT_NE(error.find("before any block"), std::string::npos);
  EXPECT_FALSE(parse("func f()\nbb0:\n  bogusop r1, r2\n", &error).has_value());
  EXPECT_NE(error.find("bogusop"), std::string::npos);
  EXPECT_FALSE(parse("func f()\nbb0:\n  imovi rv0\n", &error).has_value());
  EXPECT_FALSE(parse("func f(\n", &error).has_value());
}

TEST(IrParser, MalformedIntegersFailLoudlyInsteadOfParsingAsZero) {
  // Every integer field used to go through atoi/strtol, which silently
  // accepts a numeric prefix (or yields 0 on garbage); all of them are now
  // strict whole-token parses with a diagnostic.
  std::string error;

  // Block label.
  EXPECT_FALSE(parse("func f()\nbbX:\n  ret\n", &error).has_value());
  EXPECT_NE(error.find("bad block label"), std::string::npos) << error;
  EXPECT_FALSE(parse("func f()\nbb1x:\n  ret\n", &error).has_value());
  EXPECT_NE(error.find("bad block label"), std::string::npos) << error;

  // Spill count in the regalloc marker.
  EXPECT_FALSE(
      parse("func f() [regalloc, spills=two]\nbb0:\n  ret\n", &error)
          .has_value());
  EXPECT_NE(error.find("bad spill count"), std::string::npos) << error;
  EXPECT_TRUE(
      parse("func f() [regalloc, spills=2]\nbb0:\n  ret\n", &error)
          .has_value())
      << error;

  // Loop-mark block references.
  EXPECT_FALSE(
      parse("func f()\n  ; tuned loop: preheader=bb0 header=bbQ latch=bb1 "
            "exit=bb2 ivar=r0 N=r1 up\nbb0:\n  ret\n",
            &error)
          .has_value());
  EXPECT_NE(error.find("bad loop-mark block"), std::string::npos) << error;

  // Memory-operand scale and displacement.
  EXPECT_FALSE(
      parse("func f(f64* X{r}=r0)\nbb0:\n  fld.f64 x0, [r0 + r1*8z + 0]\n"
            "  ret\n",
            &error)
          .has_value());
  EXPECT_NE(error.find("bad scale"), std::string::npos) << error;
  EXPECT_FALSE(
      parse("func f(f64* X{r}=r0)\nbb0:\n  fld.f64 x0, [r0 + 8q]\n  ret\n",
            &error)
          .has_value());
  EXPECT_NE(error.find("bad displacement"), std::string::npos) << error;

  // Immediates and branch targets.
  EXPECT_FALSE(
      parse("func f()\nbb0:\n  imovi r0, 1x\n  ret\n", &error).has_value());
  EXPECT_NE(error.find("bad immediate"), std::string::npos) << error;
  EXPECT_FALSE(
      parse("func f()\nbb0:\n  jmp bb1y\nbb1:\n  ret\n", &error).has_value());
  EXPECT_NE(error.find("bad branch target"), std::string::npos) << error;
}

TEST(IrParser, RejectsIdsPastTheBound) {
  // Block maps and register bitsets are sized by the largest id, so an id
  // past kMaxParsedId is a parse error: not narrowed to int32_t
  // (rv4294967300 as rv4), and not a multi-gigabyte verifier allocation.
  std::string error;
  auto rejects = [&](const std::string& text, const std::string& what) {
    error.clear();
    EXPECT_FALSE(parse(text, &error).has_value()) << text;
    EXPECT_NE(error.find(what), std::string::npos) << error;
  };
  rejects("func f()\nbb2000000000:\n  ret\n", "bad block label");
  rejects("func f()\nbb2147483647:\n  ret\n", "bad block label");
  rejects("func f()\nbb65536:\n  ret\n", "bad block label");
  rejects("func f()\nbb0:\n  jmp bb65536\nbb1:\n  ret\n",
          "bad branch target");
  rejects("func f()\n  ; tuned loop: preheader=bb0 header=bb70000 latch=bb1 "
          "exit=bb2 ivar=r0 N=r1 up\nbb0:\n  ret\n",
          "bad loop-mark block");
  rejects("func f()\nbb0:\n  iaddi rv1, rv4294967300, 1\n  ret\n",
          "line 3: register 'rv4294967300' out of range (ids above 65535 are "
          "rejected)");
  rejects("func f()\nbb0:\n  iaddi rv1, rv2147483583, 1\n  ret\n",
          "register 'rv2147483583' out of range");
  rejects("func f()\nbb0:\n  imovi rv65472, 1\n  ret\n",
          "register 'rv65472' out of range");
  rejects("func f(int N=rv99999)\nbb0:\n  ret\n",
          "line 1: register 'rv99999' out of range");
  rejects("func f(f64* X{r}=r0)\nbb0:\n  fld.f64 x0, [r0 + x70000*8 + 0]\n"
          "  ret\n",
          "register 'x70000' out of range");
  rejects("func f()\nbb0:\n  imovi rv-1, 1\n  ret\n", "missing destination");

  // The largest ids parse, and verify without a large allocation.
  error.clear();
  auto fn = parse("func f()\nbb65535:\n  imovi rv65471, 1\n"
                  "  fldi.f64 x65535, 1\n  ret\n",
                  &error);
  ASSERT_TRUE(fn.has_value()) << error;
  EXPECT_EQ(fn->blocks[0].id, 65535);
  EXPECT_EQ(fn->blocks[0].insts[0].dst.id, 65535);
  EXPECT_EQ(verify(*fn), std::vector<std::string>{});
}

TEST(IrParser, ParsesNegativeDisplacementsAndIndexedMem) {
  Function fn;
  fn.name = "m";
  Reg p = fn.newIntReg();
  Reg idx = fn.newIntReg();
  fn.params.push_back({.name = "X", .kind = ParamKind::PtrF64, .reg = p});
  fn.params.push_back({.name = "I", .kind = ParamKind::Int, .reg = idx});
  fn.addBlock();
  fn.blocks[0].insts.push_back(
      Inst{.op = Op::FLd, .type = Scal::F64, .dst = fn.newFpReg(),
           .mem = Mem{.base = p, .index = idx, .scale = 8, .disp = -16}});
  fn.blocks[0].insts.push_back(Inst{.op = Op::Ret});
  expectRoundTrip(fn, "indexed-negative-disp");
}

}  // namespace
}  // namespace ifko::ir
