// End-to-end semantic gate: every kernel, lowered without optimization,
// must reproduce the reference results on the functional simulator across a
// sweep of lengths (including the empty and tiny edge cases every transform
// must also survive later).
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <thread>
#include <vector>

#include "arch/machine.h"
#include "hil/lower.h"
#include "ir/builder.h"
#include "ir/verifier.h"
#include "kernels/registry.h"
#include "kernels/tester.h"
#include "sim/decode.h"
#include "sim/memsys.h"
#include "sim/timing.h"

namespace ifko {
namespace {

struct Case {
  kernels::KernelSpec spec;
  int64_t n;
};

std::string caseName(const testing::TestParamInfo<Case>& info) {
  return info.param.spec.name() + "_n" + std::to_string(info.param.n);
}

class KernelSemantics : public testing::TestWithParam<Case> {};

TEST_P(KernelSemantics, UnoptimizedLoweringMatchesReference) {
  const auto& [spec, n] = GetParam();
  DiagnosticEngine d;
  auto fn = hil::compileHil(spec.hilSource(), d);
  ASSERT_TRUE(fn.has_value()) << d.str();
  ASSERT_TRUE(ir::verify(*fn).empty());
  auto outcome = kernels::testKernel(spec, *fn, n);
  EXPECT_TRUE(outcome.ok) << outcome.message;
}

std::vector<Case> allCases() {
  std::vector<Case> cases;
  for (const auto& spec : kernels::allKernels())
    for (int64_t n : {0, 1, 2, 3, 7, 64, 257})
      cases.push_back({spec, n});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelSemantics,
                         testing::ValuesIn(allCases()), caseName);

TEST(Interp, MemoryBoundsAreEnforced) {
  sim::Memory mem(4096);
  EXPECT_THROW((void)mem.read<double>(5000), std::out_of_range);
  EXPECT_THROW((void)mem.read<double>(0), std::out_of_range);
  EXPECT_THROW(mem.write<double>(4090, 1.0), std::out_of_range);
}

TEST(Interp, MemoryAllocateAligns) {
  sim::Memory mem(4096);
  uint64_t a = mem.allocate(10, 64);
  EXPECT_EQ(a % 64, 0u);
  uint64_t b = mem.allocate(10, 64);
  EXPECT_GE(b, a + 10);
}

// The image stores only its written prefix; everything else must behave
// exactly as a fully materialized, zero-initialized image of the logical
// size.

std::string outOfBoundsMessage(const std::function<void()>& access) {
  try {
    access();
  } catch (const std::out_of_range& e) {
    return e.what();
  }
  return "no exception";
}

TEST(LazyMemory, UnwrittenInBoundsReadsAreZero) {
  const sim::Memory mem(1 << 20);
  EXPECT_EQ(mem.read<double>(64), 0.0);
  EXPECT_EQ(mem.read<uint64_t>(4096), 0u);
  EXPECT_EQ(mem.read<uint8_t>((1 << 20) - 1), 0u);
  uint8_t buf[32];
  std::memset(buf, 0xAB, sizeof buf);
  mem.readBytes((1 << 20) - 32, buf, sizeof buf);
  for (uint8_t b : buf) EXPECT_EQ(b, 0u);
  EXPECT_EQ(mem.storedBytes(), 0u);  // reads never materialize anything
}

TEST(LazyMemory, WritePastPrefixGrowsIt) {
  sim::Memory mem(1 << 20);
  mem.write<double>(1000, 1.5);
  EXPECT_EQ(mem.storedBytes(), 1008u);
  mem.write<double>(200, 2.5);  // inside the prefix: no growth
  EXPECT_EQ(mem.storedBytes(), 1008u);
  mem.write<uint32_t>(5000, 0xDEADBEEFu);
  EXPECT_EQ(mem.storedBytes(), 5004u);
  EXPECT_EQ(mem.read<double>(1000), 1.5);
  EXPECT_EQ(mem.read<double>(200), 2.5);
  EXPECT_EQ(mem.read<uint32_t>(5000), 0xDEADBEEFu);
  // The gap the growth skipped over reads as zero.
  for (uint64_t a = 1008; a < 5000; ++a) ASSERT_EQ(mem.read<uint8_t>(a), 0u);
  // A read straddling the end of the prefix: held bytes, then zeros.
  mem.write<uint8_t>(6000, 0x7F);
  uint8_t buf[8];
  mem.readBytes(5998, buf, sizeof buf);
  const uint8_t want[8] = {0, 0, 0x7F, 0, 0, 0, 0, 0};
  for (int i = 0; i < 8; ++i) EXPECT_EQ(buf[i], want[i]) << i;
  EXPECT_EQ(mem.storedBytes(), 6001u);
}

TEST(LazyMemory, BoundsErrorsUseTheLogicalSize) {
  sim::Memory mem(4096);
  mem.write<double>(512, 1.0);  // a short stored prefix must not matter
  EXPECT_EQ(outOfBoundsMessage([&] { (void)mem.read<double>(4090); }),
            "simulated memory access out of bounds at 4090");
  EXPECT_EQ(outOfBoundsMessage([&] { mem.write<double>(4090, 1.0); }),
            "simulated memory access out of bounds at 4090");
  EXPECT_EQ(outOfBoundsMessage([&] { (void)mem.read<double>(8); }),
            "simulated memory access out of bounds at 8");
  // The last in-bounds bytes are readable and writable.
  EXPECT_EQ(mem.read<double>(4088), 0.0);
  mem.write<double>(4088, 3.0);
  EXPECT_EQ(mem.read<double>(4088), 3.0);
  EXPECT_EQ(mem.size(), 4096u);
  EXPECT_THROW((void)mem.allocate(8192), std::out_of_range);
}

TEST(LazyMemory, AccessesThatWrapAroundAreOutOfBounds) {
  // 2^64 - 8 + 16 wraps to 8; a sum-based check would let both through.
  sim::Memory mem(4096);
  const uint64_t wrapped = ~uint64_t{0} - 7;
  uint8_t buf[16] = {};
  EXPECT_EQ(outOfBoundsMessage([&] { mem.readBytes(wrapped, buf, 16); }),
            "simulated memory access out of bounds at " +
                std::to_string(wrapped));
  EXPECT_EQ(outOfBoundsMessage([&] { mem.writeBytes(wrapped, buf, 16); }),
            "simulated memory access out of bounds at " +
                std::to_string(wrapped));
  EXPECT_THROW(mem.readBytes(64, buf, ~size_t{0}), std::out_of_range);
  EXPECT_EQ(mem.storedBytes(), 0u);
}

TEST(LazyMemory, NegativeEffectiveAddressIsOutOfBoundsWhenDecoded) {
  // X[-1] with X = 0: a 16-byte vector load and store at 2^64 - 8.
  ir::Function fn;
  fn.name = "negaddr";
  const ir::Reg x = fn.newIntReg();
  fn.params.push_back({.name = "X", .kind = ir::ParamKind::PtrF64, .reg = x});
  ir::Builder b(fn, fn.addBlock());
  const ir::Reg v = b.vld(ir::Scal::F64, ir::mem(x, -8));
  b.vst(ir::Scal::F64, ir::mem(x, -8), v);
  b.ret();
  const sim::DecodedFunction dfn = sim::decodeFunction(fn, arch::p4e());
  sim::Memory mem(4096);
  const std::vector<sim::ArgValue> args{int64_t{0}};
  EXPECT_THROW((void)sim::runDecoded(dfn, mem, args), std::out_of_range);

  // The store alone is caught as well.
  ir::Function st;
  st.name = "negstore";
  const ir::Reg y = st.newIntReg();
  st.params.push_back({.name = "Y", .kind = ir::ParamKind::PtrF64, .reg = y});
  ir::Builder sb(st, st.addBlock());
  sb.vst(ir::Scal::F64, ir::mem(y, -8), sb.vzero(ir::Scal::F64));
  sb.ret();
  EXPECT_THROW((void)sim::runDecoded(sim::decodeFunction(st, arch::p4e()), mem,
                                     args),
               std::out_of_range);
  EXPECT_EQ(mem.storedBytes(), 0u);
}

TEST(LazyMemory, CopyIsByteEqualOverTheLogicalRange) {
  sim::Memory mem(1 << 16);
  const uint64_t a = mem.allocate(4096);
  for (uint64_t i = 0; i < 4096; i += 8) mem.write<double>(a + i, 0.5 * i);
  mem.write<uint8_t>(20000, 9);
  const sim::Memory copy(mem);
  EXPECT_EQ(copy.size(), mem.size());
  EXPECT_EQ(copy.storedBytes(), mem.storedBytes());
  for (uint64_t addr = 64; addr < mem.size(); ++addr)
    ASSERT_EQ(copy.read<uint8_t>(addr), mem.read<uint8_t>(addr)) << addr;
  // The copy allocates from where the original left off, and is
  // independent of it.
  sim::Memory copy2(mem);
  EXPECT_EQ(copy2.allocate(64), mem.allocate(64));
  copy2.write<double>(a, -1.0);
  EXPECT_EQ(mem.read<double>(a), 0.0);
}

TEST(LazyMemory, ConcurrentConstReadersSeeOneImage) {
  sim::Memory mem(1 << 20);
  for (uint64_t i = 0; i < 8192; i += 8)
    mem.write<uint64_t>(64 + i, i * 2654435761u);
  const sim::Memory& shared = mem;
  const size_t stored = shared.storedBytes();
  std::vector<uint64_t> sums(8, 0);
  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&shared, &sums, t] {
      uint64_t sum = 0;
      // Read through the prefix and well past it.
      for (uint64_t a = 64; a + 8 <= 64 + 65536; a += 8)
        sum += shared.read<uint64_t>(a);
      sums[static_cast<size_t>(t)] = sum;
    });
  }
  for (auto& r : readers) r.join();
  uint64_t want = 0;
  for (uint64_t i = 0; i < 8192; i += 8) want += i * 2654435761u;
  for (uint64_t s : sums) EXPECT_EQ(s, want);
  EXPECT_EQ(shared.storedBytes(), stored);
}

TEST(Interp, DynInstBudgetStopsRunawayLoop) {
  ir::Function fn;
  fn.name = "inf";
  int32_t b0 = fn.addBlock();
  ir::Builder b(fn, b0);
  b.jmp(b0);
  sim::Memory mem(4096);
  EXPECT_THROW(sim::runDecoded(sim::decodeFunction(fn), mem, {}, nullptr,
                               /*maxDynInsts=*/1000),
               std::runtime_error);
}

TEST(Interp, ObserverSeesEveryInstruction) {
  kernels::KernelSpec spec{kernels::BlasOp::Copy, ir::Scal::F64};
  DiagnosticEngine d;
  auto fn = hil::compileHil(spec.hilSource(), d);
  ASSERT_TRUE(fn.has_value());
  auto data = kernels::makeKernelData(spec, 16);
  const arch::MachineConfig m = arch::p4e();
  sim::MemSystem msys(m);
  sim::TimingModel timing(m, msys);
  auto r = sim::runDecoded(sim::decodeFunction(*fn, m), *data.mem,
                           data.args(*fn), &timing);
  // The unoptimized copy at n=16 executes 118 instructions, and the timing
  // model sees each of them.
  EXPECT_EQ(r.dynInsts, 118u);
  EXPECT_EQ(timing.stats().insts, r.dynInsts);
  // copy does one load + one store per element
  EXPECT_EQ(msys.stats().loads + msys.stats().stores, 32u);
}

TEST(Interp, VectorOpsRoundTrip) {
  // Hand-build a tiny function: load 2 doubles, vadd with itself, store.
  ir::Function fn;
  fn.name = "v";
  ir::Reg p = fn.newIntReg();
  fn.params.push_back({.name = "X", .kind = ir::ParamKind::PtrF64, .reg = p});
  ir::Builder b(fn, fn.addBlock());
  ir::Reg v = b.vld(ir::Scal::F64, ir::mem(p, 0));
  ir::Reg s = b.vadd(ir::Scal::F64, v, v);
  b.vst(ir::Scal::F64, ir::mem(p, 0), s);
  ir::Reg h = b.vhadd(ir::Scal::F64, s);
  b.retVal(h);
  fn.retType = ir::RetType::F64;

  sim::Memory mem(4096);
  uint64_t addr = mem.allocate(16, 16);
  mem.write<double>(addr, 1.5);
  mem.write<double>(addr + 8, 2.0);
  auto r = sim::runDecoded(sim::decodeFunction(fn), mem,
                           std::vector<sim::ArgValue>{static_cast<int64_t>(addr)});
  EXPECT_DOUBLE_EQ(mem.read<double>(addr), 3.0);
  EXPECT_DOUBLE_EQ(mem.read<double>(addr + 8), 4.0);
  ASSERT_TRUE(r.fpResult.has_value());
  EXPECT_DOUBLE_EQ(*r.fpResult, 7.0);
}

TEST(Interp, VectorMaskAndSelect) {
  ir::Function fn;
  fn.name = "m";
  ir::Builder b(fn, fn.addBlock());
  ir::Reg one = b.fldi(ir::Scal::F32, 1.0);
  ir::Reg vone = b.vbcast(ir::Scal::F32, one);
  ir::Reg vio = b.viota(ir::Scal::F32);  // {0,1,2,3}
  ir::Reg mask = b.vcmpgt(ir::Scal::F32, vio, vone);  // {0,0,~0,~0}
  ir::Reg msk = b.vmovmsk(ir::Scal::F32, mask);
  ir::Reg sel = b.vsel(ir::Scal::F32, mask, vio, vone);  // {1,1,2,3}
  ir::Reg sum = b.vhadd(ir::Scal::F32, sel);
  // Return mask bits; check sum via store-free compare below.
  b.retVal(msk);
  fn.retType = ir::RetType::Int;
  (void)sum;

  sim::Memory mem(4096);
  auto r = sim::runDecoded(sim::decodeFunction(fn), mem, {});
  ASSERT_TRUE(r.intResult.has_value());
  EXPECT_EQ(*r.intResult, 0b1100);
}

}  // namespace
}  // namespace ifko
