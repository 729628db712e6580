// Detailed memory-system and ISA-semantics tests added alongside the
// calibration work: write-combining buffers, the hardware prefetcher's page
// discipline, ownership upgrades, the store buffer, and the VExt/FToI/Touch
// instructions.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/machine.h"
#include "ir/builder.h"
#include "sim/decode.h"
#include "sim/memsys.h"
#include "sim/timing.h"
#include "support/rng.h"
#include "opt/repeatable.h"

namespace ifko::sim {
namespace {

arch::MachineConfig tiny() {
  arch::MachineConfig m = arch::opteron();
  m.name = "tiny";
  m.caches = {{.sizeBytes = 1024, .lineBytes = 64, .assoc = 2, .latency = 3},
              {.sizeBytes = 4096, .lineBytes = 64, .assoc = 4, .latency = 10}};
  m.memLatency = 100;
  m.busBytesPerCycle = 2.0;
  m.busTurnaround = 8;
  m.maxOutstandingMisses = 4;
  m.hwPrefetchDepth = 0;  // keep the hardware prefetcher out of unit tests
  m.wcBuffers = 2;
  return m;
}

TEST(WcBuffers, TwoInterleavedNtStreamsCombineWithTwoBuffers) {
  // Stores alternate between two line-sized streams; with >= 2 WC buffers
  // each line flushes exactly once when complete: 2 lines -> 128 bus bytes.
  const arch::MachineConfig m = tiny();
  sim::MemSystem mem(m);
  uint64_t now = 0;
  for (int i = 0; i < 8; ++i) {
    now = mem.storeNT(0x10000 + 8u * static_cast<uint64_t>(i), 8, now);
    now = mem.storeNT(0x20000 + 8u * static_cast<uint64_t>(i), 8, now);
  }
  EXPECT_EQ(mem.stats().busBytes, 128u);
}

TEST(WcBuffers, ThreeStreamsThrashTwoBuffers) {
  // A third stream evicts partially-filled buffers: partial lines flush at
  // full line cost, so traffic exceeds the 3-line minimum.
  arch::MachineConfig m = tiny();
  m.wcBuffers = 2;
  sim::MemSystem mem(m);
  uint64_t now = 0;
  for (int i = 0; i < 8; ++i) {
    now = mem.storeNT(0x10000 + 8u * static_cast<uint64_t>(i), 8, now);
    now = mem.storeNT(0x20000 + 8u * static_cast<uint64_t>(i), 8, now);
    now = mem.storeNT(0x30000 + 8u * static_cast<uint64_t>(i), 8, now);
  }
  EXPECT_GT(mem.stats().busBytes, 3u * 64u);
}

TEST(HwPrefetcher, DoesNotCrossPageBoundary) {
  arch::MachineConfig m = arch::p4e();
  m.hwPrefetchDepth = 8;
  sim::MemSystem mem(m);
  // Train right up to the end of a 4KB page: the prefetcher must not fetch
  // the first lines of the next page.
  uint64_t page = 0x40000;
  uint64_t now = 0;
  for (int i = 56; i < 64; ++i)  // last 8 lines of the page
    now = mem.load(page + 64u * static_cast<uint64_t>(i), 8, now) + 1;
  // The first access on the next page must be a fresh memory miss (nothing
  // was fetched across the boundary) — it pays full memory latency.  (It
  // also retrains the stream, so ahead-fetches on the *new* page follow.)
  uint64_t start = now + 1000;
  uint64_t ready = mem.load(page + 4096, 8, start);
  EXPECT_GE(ready - start, static_cast<uint64_t>(m.memLatency));
}

TEST(MemSystem, UpgradeChargesStoreNotBus) {
  // A store to a line loaded shared costs a small latency but transfers no
  // line of data.
  const arch::MachineConfig m = tiny();
  sim::MemSystem mem(m);
  uint64_t t = mem.load(0x5000, 8, 0);
  uint64_t bytesAfterLoad = mem.stats().busBytes;
  uint64_t commit = mem.store(0x5000, 8, t);
  EXPECT_EQ(mem.stats().busBytes, bytesAfterLoad);
  EXPECT_GE(commit, t + 1);
  // Second store to the now-exclusive line is cheaper.
  uint64_t commit2 = mem.store(0x5008, 8, commit);
  EXPECT_LE(commit2 - commit, commit - t);
}

TEST(MemSystem, StoreBufferEventuallyBackpressures) {
  arch::MachineConfig m = tiny();
  m.storeBufferEntries = 4;
  sim::MemSystem mem(m);
  // Miss-stores to distinct lines: the first few commit at now+1, then the
  // buffer is full and commits wait for RFO fills.
  uint64_t firstCommit = mem.store(0x100000, 8, 0);
  EXPECT_EQ(firstCommit, 1u);
  uint64_t lastCommit = 0;
  for (int i = 1; i < 12; ++i)
    lastCommit = mem.store(0x100000 + 64u * static_cast<uint64_t>(i), 8, 0);
  EXPECT_GT(lastCommit, 100u);  // waits on a fill
}

// --- newer ISA ops --------------------------------------------------------------

TEST(IsaOps, VExtExtractsLanes) {
  ir::Function fn;
  fn.name = "vext";
  ir::Reg p = fn.newIntReg();
  fn.params.push_back({.name = "X", .kind = ir::ParamKind::PtrF32, .reg = p});
  ir::Builder b(fn, fn.addBlock());
  ir::Reg v = b.vld(ir::Scal::F32, ir::mem(p, 0));
  ir::Reg lane2 = fn.newFpReg();
  b.emit({.op = ir::Op::VExt, .type = ir::Scal::F32, .dst = lane2, .src1 = v,
          .imm = 2});
  b.retVal(lane2);
  fn.retType = ir::RetType::F32;

  Memory mem(4096);
  uint64_t addr = mem.allocate(16, 16);
  for (int l = 0; l < 4; ++l)
    mem.write<float>(addr + static_cast<uint64_t>(l) * 4,
                     static_cast<float>(10 + l));
  auto r = runDecoded(decodeFunction(fn), mem,
                      std::vector<ArgValue>{static_cast<int64_t>(addr)});
  ASSERT_TRUE(r.fpResult.has_value());
  EXPECT_FLOAT_EQ(static_cast<float>(*r.fpResult), 12.0f);
}

TEST(IsaOps, FToITruncates) {
  ir::Function fn;
  fn.name = "ftoi";
  ir::Builder b(fn, fn.addBlock());
  ir::Reg f = b.fldi(ir::Scal::F64, 41.9);
  ir::Reg i = fn.newIntReg();
  b.emit({.op = ir::Op::FToI, .type = ir::Scal::F64, .dst = i, .src1 = f});
  b.retVal(i);
  fn.retType = ir::RetType::Int;
  Memory mem(4096);
  auto r = runDecoded(decodeFunction(fn), mem, {});
  ASSERT_TRUE(r.intResult.has_value());
  EXPECT_EQ(*r.intResult, 41);  // truncation, not rounding
}

TEST(IsaOps, TouchFetchesWithoutBlocking) {
  // A Touch initiates the fill; a later load hits.
  arch::MachineConfig m = tiny();
  sim::MemSystem msys(m);
  sim::TimingModel timing(m, msys);

  ir::Function fn;
  fn.name = "touch";
  ir::Reg p = fn.newIntReg();
  fn.params.push_back({.name = "X", .kind = ir::ParamKind::PtrF64, .reg = p});
  ir::Builder b(fn, fn.addBlock());
  b.emit({.op = ir::Op::Touch, .type = ir::Scal::F64, .mem = ir::mem(p, 0)});
  b.ret();

  Memory mem(1 << 16);
  uint64_t addr = mem.allocate(64, 64);
  runDecoded(decodeFunction(fn, m), mem,
             std::vector<ArgValue>{static_cast<int64_t>(addr)}, &timing);
  // Touch completes immediately (+1) while the line fill proceeds.
  EXPECT_LT(timing.cycles(), static_cast<uint64_t>(m.memLatency));
  EXPECT_EQ(msys.stats().loadMissMem, 1u);
}

TEST(Decode, TimedRunNeedsTheTimingModelsCosts) {
  // A timed run must use the costs of the machine that times it: a function
  // decoded without costs, or with another machine's, is rejected before
  // any instruction runs.
  ir::Function fn;
  fn.name = "one";
  ir::Builder b(fn, fn.addBlock());
  (void)b.fldi(ir::Scal::F64, 1.0);
  b.ret();
  const arch::MachineConfig p4e = arch::p4e();
  MemSystem msys(p4e);
  TimingModel timing(p4e, msys);
  Memory mem(4096);
  EXPECT_THROW(runDecoded(decodeFunction(fn), mem, {}, &timing),
               std::invalid_argument);
  EXPECT_THROW(runDecoded(decodeFunction(fn, arch::opteron()), mem, {},
                          &timing),
               std::invalid_argument);
  EXPECT_EQ(timing.stats().insts, 0u);
  // Untimed, either decoding runs; timed by its own machine, it counts.
  EXPECT_EQ(runDecoded(decodeFunction(fn), mem, {}).dynInsts, 2u);
  EXPECT_EQ(runDecoded(decodeFunction(fn, arch::opteron()), mem, {}).dynInsts,
            2u);
  EXPECT_EQ(runDecoded(decodeFunction(fn, p4e), mem, {}, &timing).dynInsts,
            2u);
  EXPECT_EQ(timing.stats().insts, 2u);
}

TEST(IsaOps, TouchSurvivesDeadCodeElimination) {
  // Unlike a dead FLd, a Touch has no destination and must be kept.
  ir::Function fn;
  fn.name = "t";
  ir::Reg p = fn.newIntReg();
  fn.params.push_back({.name = "X", .kind = ir::ParamKind::PtrF64, .reg = p});
  ir::Builder b(fn, fn.addBlock());
  b.emit({.op = ir::Op::Touch, .type = ir::Scal::F64, .mem = ir::mem(p, 0)});
  (void)b.fld(ir::Scal::F64, ir::mem(p, 8));  // dead load: removable
  b.ret();
  (void)opt::deadCodeElim(fn);
  size_t touches = 0, loads = 0;
  for (const auto& bb : fn.blocks)
    for (const auto& in : bb.insts) {
      touches += in.op == ir::Op::Touch;
      loads += in.op == ir::Op::FLd;
    }
  EXPECT_EQ(touches, 1u);
  EXPECT_EQ(loads, 0u);
}

// ---- the simulator's lookup structures against their naive models --------

/// The store buffer as first written: append, then once it overflows drain
/// the earliest commit with a linear min_element + erase.
struct NaiveStoreBuffer {
  size_t entries;
  std::vector<uint64_t> buf;

  uint64_t reserve(uint64_t ready, uint64_t now) {
    buf.push_back(ready);
    if (buf.size() <= entries) return now + 1;
    auto oldest = std::min_element(buf.begin(), buf.end());
    const uint64_t wait = *oldest;
    buf.erase(oldest);
    return std::max(now + 1, wait);
  }
};

TEST(StoreBuffer, HeapMatchesLinearScan) {
  for (int entries : {4, 20, 24}) {
    SplitMix64 rng(0x5B00 + static_cast<uint64_t>(entries));
    StoreBuffer heap(entries);
    NaiveStoreBuffer naive{static_cast<size_t>(entries), {}};
    uint64_t now = 0;
    for (int i = 0; i < 10000; ++i) {
      now += rng.next() % 4;
      // Mostly out-of-order commits ahead of the issue cycle, many of them
      // tied; one in eight already complete.
      const uint64_t ready = rng.next() % 8 == 0 ? rng.next() % (now + 1)
                                                 : now + rng.next() % 400;
      ASSERT_EQ(heap.reserve(ready, now), naive.reserve(ready, now))
          << "entries " << entries << ", store " << i;
    }
  }
}

/// Every tag sits in its own set exactly once, and findSlot agrees with a
/// full scan of the level's tag array for every resident tag and probe.
void expectTagArraysConsistent(const MemSystem& mem,
                               const std::vector<uint64_t>& probes) {
  for (size_t li = 0; li < 2; ++li) {
    const MemSystem::Level& level = mem.level(li);
    const auto& tags = level.tags;
    auto scan = [&](uint64_t laddr) {
      auto it = std::find(tags.begin(), tags.end(), laddr);
      return it == tags.end() ? MemSystem::kNoSlot
                              : static_cast<size_t>(it - tags.begin());
    };
    for (size_t slot = 0; slot < tags.size(); ++slot) {
      if (tags[slot] == MemSystem::kNoTag) continue;
      ASSERT_EQ(std::count(tags.begin(), tags.end(), tags[slot]), 1)
          << "L" << li + 1 << " slot " << slot;
      ASSERT_EQ(level.findSlot(tags[slot]), slot) << "L" << li + 1;
      ASSERT_EQ(slot - level.setBase(tags[slot]) <
                    static_cast<size_t>(level.cfg.assoc),
                true)
          << "L" << li + 1 << " slot " << slot << " outside its set";
    }
    for (uint64_t laddr : probes)
      ASSERT_EQ(level.findSlot(laddr), scan(laddr))
          << "L" << li + 1 << " line " << laddr;
  }
}

TEST(MemSystem, TagArrayFindMatchesFullScan) {
  arch::MachineConfig m = tiny();
  m.hwPrefetchDepth = 2;  // more installs, from a second source
  MemSystem mem(m);
  SplitMix64 rng(0x7A65);
  const ir::PrefKind kinds[] = {ir::PrefKind::NTA, ir::PrefKind::T0,
                                ir::PrefKind::T1, ir::PrefKind::W};
  uint64_t now = 0;
  std::vector<uint64_t> probes;
  for (int i = 0; i < 20000; ++i) {
    // 256 lines over 16 KB: far more than the 80 ways, so sets keep
    // evicting; runs of neighbouring lines train the prefetcher.
    const uint64_t addr = 64 + (rng.next() % 2048) * 8;
    switch (rng.next() % 6) {
      case 0: case 1: now = std::max(now, mem.load(addr, 8, now)); break;
      case 2: now = std::max(now, mem.store(addr, 8, now)); break;
      case 3: now = std::max(now, mem.storeNT(addr, 8, now)); break;
      case 4: mem.prefetch(kinds[rng.next() % 4], addr, now); break;
      default: mem.warm(addr, 1 + rng.next() % 256); break;
    }
    now += rng.next() % 16;
    probes.assign({addr & ~uint64_t{63}, (addr & ~uint64_t{63}) + 64,
                   (rng.next() % 512) * 64});
    if (i % 50 == 0) expectTagArraysConsistent(mem, probes);
  }
  expectTagArraysConsistent(mem, probes);
  EXPECT_GT(mem.stats().evictL1, 1000u);
  EXPECT_GT(mem.stats().ntStores, 1000u);
}

std::string geometryError(const arch::MachineConfig& m) {
  try {
    MemSystem mem(m);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "accepted";
}

TEST(MemSystem, RejectsNonPowerOfTwoGeometry) {
  arch::MachineConfig m = tiny();
  m.caches[1].sizeBytes = 3 * 64 * 4;  // 3 sets
  EXPECT_EQ(geometryError(m),
            "MemSystem: machine 'tiny' cache L2 has line size 64 and 3 sets; "
            "both must be powers of two");
  m = tiny();
  m.caches[0] = {.sizeBytes = 48 * 2 * 8, .lineBytes = 48, .assoc = 2};
  EXPECT_EQ(geometryError(m),
            "MemSystem: machine 'tiny' cache L1 has line size 48 and 8 sets; "
            "both must be powers of two");
  EXPECT_EQ(geometryError(tiny()), "accepted");
  EXPECT_EQ(geometryError(arch::p4e()), "accepted");
  EXPECT_EQ(geometryError(arch::opteron()), "accepted");
}

}  // namespace
}  // namespace ifko::sim
