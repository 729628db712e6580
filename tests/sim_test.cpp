#include <gtest/gtest.h>

#include "arch/machine.h"
#include "hil/lower.h"
#include "sim/memsys.h"
#include "sim/timer.h"
#include "ir/builder.h"
#include "sim/timing.h"

namespace ifko::sim {
namespace {

using arch::MachineConfig;

MachineConfig tiny() {
  // Small, round-number machine for cache unit tests: 1KB 2-way L1 (16
  // lines), 4KB 4-way L2, 64B lines.
  MachineConfig m = arch::opteron();
  m.name = "tiny";
  m.caches = {{.sizeBytes = 1024, .lineBytes = 64, .assoc = 2, .latency = 3},
              {.sizeBytes = 4096, .lineBytes = 64, .assoc = 4, .latency = 10}};
  m.memLatency = 100;
  m.busBytesPerCycle = 2.0;  // 32 cycles per line
  m.busTurnaround = 8;
  m.maxOutstandingMisses = 4;
  m.prefetchDropBacklog = 40;
  return m;
}

TEST(MemSystem, L1HitLatency) {
  MachineConfig m = tiny();
  MemSystem mem(m);
  uint64_t t0 = mem.load(0x1000, 8, 0);
  EXPECT_GE(t0, 100u);  // cold miss
  uint64_t t1 = mem.load(0x1008, 8, t0);
  EXPECT_EQ(t1, t0 + 3);  // same line, L1 hit
}

TEST(MemSystem, MissGoesToMemory) {
  const MachineConfig m = tiny();
  MemSystem mem(m);
  uint64_t t = mem.load(0x2000, 8, 0);
  EXPECT_GE(t, 100u);
  EXPECT_EQ(mem.stats().loadMissMem, 1u);
}

TEST(MemSystem, L2HitAfterL1Eviction) {
  MachineConfig m = tiny();
  MemSystem mem(m);
  // L1: 8 sets * 2 ways. Lines 0x1000, 0x1200, 0x1400 map to the same set
  // (stride 0x200 = 8 sets * 64B); the third evicts the first from L1.
  uint64_t now = mem.load(0x1000, 8, 0);
  now = mem.load(0x1200, 8, now);
  now = mem.load(0x1400, 8, now);
  uint64_t before = mem.stats().loadMissMem;
  uint64_t t = mem.load(0x1000, 8, now + 1000);
  EXPECT_EQ(mem.stats().loadMissMem, before);  // still in L2
  EXPECT_EQ(t, now + 1000 + 10);               // L2 latency
}

TEST(MemSystem, StoreMissDoesRFO) {
  const MachineConfig m = tiny();
  MemSystem mem(m);
  mem.store(0x3000, 8, 0);
  EXPECT_EQ(mem.stats().storeRFOs, 1u);
  EXPECT_GT(mem.stats().busBytes, 0u);
}

TEST(MemSystem, StoreHitAvoidsRFO) {
  const MachineConfig m = tiny();
  MemSystem mem(m);
  uint64_t t = mem.load(0x3000, 8, 0);
  mem.store(0x3000, 8, t);
  EXPECT_EQ(mem.stats().storeRFOs, 0u);
}

TEST(MemSystem, DirtyEvictionWritesBack) {
  const MachineConfig m = tiny();
  MemSystem mem(m);
  uint64_t now = mem.store(0x1000, 8, 0);
  now = std::max(now, mem.busFreeTime());
  // Evict 0x1000 from both L1 and L2.  L2: 16 sets * 4 ways, stride 0x400.
  for (int i = 1; i <= 8; ++i)
    now = mem.load(0x1000 + 0x400u * static_cast<uint64_t>(i), 8, now);
  EXPECT_GE(mem.stats().writebacks, 1u);
}

TEST(MemSystem, NtStoreBypassesCache) {
  const MachineConfig m = tiny();
  MemSystem mem(m);
  uint64_t now = 0;
  for (int i = 0; i < 8; ++i)
    now = mem.storeNT(0x5000 + 8u * static_cast<uint64_t>(i), 8, now);
  EXPECT_EQ(mem.stats().ntStores, 8u);
  EXPECT_EQ(mem.stats().storeRFOs, 0u);
  // A later load of that line must miss to memory (nothing was cached).
  uint64_t before = mem.stats().loadMissMem;
  mem.load(0x5000, 8, now + 1000);
  EXPECT_EQ(mem.stats().loadMissMem, before + 1);
}

TEST(MemSystem, NtStoreFullLineUsesOneBusTransfer) {
  const MachineConfig m = tiny();
  MemSystem mem(m);
  uint64_t bytesBefore = mem.stats().busBytes;
  uint64_t now = 0;
  for (int i = 0; i < 8; ++i)
    now = mem.storeNT(0x5000 + 8u * static_cast<uint64_t>(i), 8, now);
  EXPECT_EQ(mem.stats().busBytes - bytesBefore, 64u);
}

TEST(MemSystem, NtStoreOnCachedLinePenalizedOnlyWhenConfigured) {
  MachineConfig cheap = tiny();
  cheap.ntStoreCheapWhenCached = true;
  MachineConfig costly = tiny();
  costly.ntStoreCheapWhenCached = false;

  for (bool isCostly : {false, true}) {
    MemSystem mem(isCostly ? costly : cheap);
    uint64_t t = mem.load(0x7000, 8, 0);  // cache the line
    mem.storeNT(0x7000, 8, t);
    if (isCostly)
      EXPECT_EQ(mem.stats().ntFlushes, 1u);
    else
      EXPECT_EQ(mem.stats().ntFlushes, 0u);
  }
}

TEST(MemSystem, PrefetchHidesLatency) {
  const MachineConfig m = tiny();
  MemSystem mem(m);
  mem.prefetch(ir::PrefKind::NTA, 0x9000, 0);
  EXPECT_EQ(mem.stats().prefIssued, 1u);
  // Long after the fill completes, the load is an L1 hit.
  uint64_t t = mem.load(0x9000, 8, 500);
  EXPECT_EQ(t, 503u);
}

TEST(MemSystem, PrefetchInFlightGivesPartialBenefit) {
  const MachineConfig m = tiny();
  MemSystem mem(m);
  mem.prefetch(ir::PrefKind::NTA, 0x9000, 0);
  // Load arrives halfway through the fill: waits only the remainder.
  uint64_t t = mem.load(0x9000, 8, 50);
  EXPECT_GT(t, 53u);
  EXPECT_LE(t, 140u);
}

TEST(MemSystem, PrefetchDroppedWhenBusBusy) {
  MachineConfig m = tiny();
  MemSystem mem(m);
  // Saturate the bus with demand misses at the same instant.
  for (int i = 0; i < 4; ++i)
    mem.load(0x10000 + 0x1000u * static_cast<uint64_t>(i), 8, 0);
  mem.prefetch(ir::PrefKind::NTA, 0x20000, 0);
  EXPECT_EQ(mem.stats().prefDropped, 1u);
}

TEST(MemSystem, PrefetchT1FillsOnlyL2) {
  const MachineConfig m = tiny();
  MemSystem mem(m);
  mem.prefetch(ir::PrefKind::T1, 0xA000, 0);
  // Later load misses L1 but hits L2.
  uint64_t before = mem.stats().loadMissMem;
  uint64_t t = mem.load(0xA000, 8, 1000);
  EXPECT_EQ(mem.stats().loadMissMem, before);
  EXPECT_EQ(t, 1010u);  // L2 latency
}

TEST(MemSystem, PrefetchDedupesResidentLines) {
  const MachineConfig m = tiny();
  MemSystem mem(m);
  uint64_t t = mem.load(0xB000, 8, 0);
  mem.prefetch(ir::PrefKind::T0, 0xB000, t);
  EXPECT_EQ(mem.stats().prefIssued, 0u);
  EXPECT_EQ(mem.stats().prefDropped, 0u);
}

TEST(MemSystem, WarmMakesLoadsHit) {
  const MachineConfig m = tiny();
  MemSystem mem(m);
  mem.warm(0xC000, 256);
  uint64_t t = mem.load(0xC0F8, 8, 0);
  EXPECT_EQ(t, 3u);
  EXPECT_EQ(mem.stats().loadMissMem, 0u);
}

TEST(MemSystem, BusTurnaroundPenalizesInterleavedReadsWrites) {
  // Interleaved read/write misses pay turnaround each switch; grouped
  // traffic doesn't.  (The effect AMD's block fetch exploits.)
  MachineConfig m = tiny();
  MemSystem interleaved(m);
  uint64_t now = 0;
  for (int i = 0; i < 8; ++i) {
    interleaved.load(0x40000 + 0x40u * static_cast<uint64_t>(2 * i), 8, now);
    interleaved.storeNT(0x80000 + 0x40u * static_cast<uint64_t>(2 * i + 1), 64, now);
    now = interleaved.busFreeTime();
  }
  uint64_t interleavedDone = interleaved.busFreeTime();

  MemSystem grouped(m);
  now = 0;
  for (int i = 0; i < 8; ++i)
    grouped.load(0x40000 + 0x40u * static_cast<uint64_t>(2 * i), 8, now);
  now = grouped.busFreeTime();
  for (int i = 0; i < 8; ++i)
    grouped.storeNT(0x80000 + 0x40u * static_cast<uint64_t>(2 * i + 1), 64, now);
  uint64_t groupedDone = grouped.busFreeTime();
  EXPECT_LT(groupedDone, interleavedDone);
}

// ---------------------------------------------------------------------------

ir::Function chainFn(int n, bool independent) {
  // n FAdds, either one dependence chain or fully independent.
  ir::Function fn;
  fn.name = "chain";
  ir::Builder b(fn, fn.addBlock());
  ir::Reg acc = b.fldi(ir::Scal::F64, 1.0);
  ir::Reg one = b.fldi(ir::Scal::F64, 2.0);
  if (independent) {
    for (int i = 0; i < n; ++i) (void)b.fadd(ir::Scal::F64, one, one);
  } else {
    for (int i = 0; i < n; ++i) acc = b.fadd(ir::Scal::F64, acc, acc);
  }
  b.ret();
  return fn;
}

uint64_t cyclesOf(const ir::Function& fn, const MachineConfig& m) {
  MemSystem mem(m);
  TimingModel t(m, mem);
  Memory data(4096);
  runDecoded(decodeFunction(fn, m), data, {}, &t);
  return t.cycles();
}

TEST(Timing, DependentChainBoundByLatency) {
  MachineConfig m = arch::p4e();
  uint64_t dep = cyclesOf(chainFn(64, false), m);
  uint64_t indep = cyclesOf(chainFn(64, true), m);
  // The dependent chain pays ~latFAdd per op; independent ops pipeline.
  EXPECT_GT(dep, indep * 2);
  EXPECT_GE(dep, 64u * static_cast<uint64_t>(m.latFAdd));
}

TEST(Timing, IssueWidthBoundsIndependentIntOps) {
  ir::Function fn;
  fn.name = "ints";
  ir::Builder b(fn, fn.addBlock());
  for (int i = 0; i < 300; ++i) (void)b.imovi(i);
  b.ret();
  uint64_t c = cyclesOf(fn, arch::p4e());
  // 300 int ops on a 3-wide machine with 2 ALUs: >= 150 cycles.
  EXPECT_GE(c, 150u);
  EXPECT_LE(c, 400u);
}

TEST(Timing, MispredictsCostCycles) {
  // A data-dependent unpredictable branch vs. an always-taken one.
  auto branchy = [](bool alternate) {
    ir::Function fn;
    fn.name = "br";
    int32_t b0 = fn.addBlock();
    ir::Builder b(fn, b0);
    ir::Reg i = b.imovi(0);
    ir::Reg parity = b.imovi(0);
    int32_t loop = fn.addBlock();
    b.jmp(loop);
    b.setBlock(loop);
    ir::Builder lb(fn, loop);
    int32_t skip = fn.addBlock();
    if (alternate) {
      // parity flips each iteration -> alternating branch
      ir::Reg one = lb.imovi(1);
      lb.emit({.op = ir::Op::ISub, .dst = parity, .src1 = one, .src2 = parity});
      lb.icmpi(parity, 1);
      lb.jcc(ir::Cond::EQ, skip);
    } else {
      lb.icmpi(parity, 0);
      lb.jcc(ir::Cond::EQ, skip);  // always taken
    }
    ir::Builder sb(fn, skip);
    sb.emit({.op = ir::Op::IAddI, .dst = i, .src1 = i, .imm = 1});
    sb.icmpi(i, 500);
    sb.jcc(ir::Cond::LT, loop);
    int32_t done = fn.addBlock();
    ir::Builder db(fn, done);
    db.ret();
    return fn;
  };
  uint64_t predictable = cyclesOf(branchy(false), arch::p4e());
  uint64_t alternating = cyclesOf(branchy(true), arch::p4e());
  EXPECT_GT(alternating, predictable + 1000);
}

TEST(Timer, InL2IsFasterThanOutOfCache) {
  kernels::KernelSpec spec{kernels::BlasOp::Dot, ir::Scal::F64};
  DiagnosticEngine d;
  auto fn = hil::compileHil(spec.hilSource(), d);
  ASSERT_TRUE(fn.has_value());
  auto cold = timeKernel(arch::p4e(), *fn, spec, 1024, TimeContext::OutOfCache);
  auto warm = timeKernel(arch::p4e(), *fn, spec, 1024, TimeContext::InL2);
  EXPECT_LT(warm.cycles, cold.cycles);
  EXPECT_GT(warm.mflops(spec.flops(1024), 2.8),
            cold.mflops(spec.flops(1024), 2.8));
}

TEST(Timer, Deterministic) {
  kernels::KernelSpec spec{kernels::BlasOp::Asum, ir::Scal::F32};
  DiagnosticEngine d;
  auto fn = hil::compileHil(spec.hilSource(), d);
  ASSERT_TRUE(fn.has_value());
  auto a = timeKernel(arch::opteron(), *fn, spec, 4096, TimeContext::OutOfCache);
  auto b = timeKernel(arch::opteron(), *fn, spec, 4096, TimeContext::OutOfCache);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.dynInsts, b.dynInsts);
}

TEST(Timer, ContextFlagParsesOnlyTheFlagSpellings) {
  EXPECT_EQ(sim::parseContextFlag("ooc"), sim::TimeContext::OutOfCache);
  EXPECT_EQ(sim::parseContextFlag("inl2"), sim::TimeContext::InL2);
  // The display names are not flag spellings, and nothing defaults.
  EXPECT_FALSE(sim::parseContextFlag("in-L2").has_value());
  EXPECT_FALSE(sim::parseContextFlag("out-of-cache").has_value());
  EXPECT_FALSE(sim::parseContextFlag("INL2").has_value());
  EXPECT_FALSE(sim::parseContextFlag("").has_value());
}

TEST(Machines, ArchFlagParsesOnlyTheFlagSpellings) {
  ASSERT_TRUE(arch::parseArchFlag("p4e").has_value());
  EXPECT_EQ(arch::parseArchFlag("p4e")->name, arch::p4e().name);
  ASSERT_TRUE(arch::parseArchFlag("opteron").has_value());
  EXPECT_EQ(arch::parseArchFlag("opteron")->name, arch::opteron().name);
  // The display names are not flag spellings, and nothing defaults.
  EXPECT_FALSE(arch::parseArchFlag("Opteron").has_value());
  EXPECT_FALSE(arch::parseArchFlag("P4E").has_value());
  EXPECT_FALSE(arch::parseArchFlag("").has_value());
}

TEST(Machines, PresetsAreSane) {
  for (const auto& m : arch::allMachines()) {
    EXPECT_GE(m.caches.size(), 2u);
    EXPECT_GT(m.ghz, 0.0);
    EXPECT_GT(m.busBytesPerCycle, 0.0);
    EXPECT_EQ(m.lineBytes(), 64);
    // P4E must be more bus-bound than Opteron: more cycles of miss latency,
    // fewer bytes per cycle.
  }
  EXPECT_GT(arch::p4e().memLatency, arch::opteron().memLatency);
  EXPECT_LT(arch::p4e().busBytesPerCycle, arch::opteron().busBytesPerCycle);
  EXPECT_FALSE(arch::p4e().hasPrefW);
  EXPECT_TRUE(arch::opteron().hasPrefW);
  EXPECT_EQ(arch::opteron().prefKinds().size(), 4u);
  EXPECT_EQ(arch::p4e().prefKinds().size(), 3u);
}

}  // namespace
}  // namespace ifko::sim
