#include "opt/regalloc.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "opt/liveness.h"

namespace ifko::opt {

using ir::Inst;
using ir::Op;
using ir::Reg;
using ir::RegKind;

namespace {

struct Interval {
  int32_t reg = -1;  ///< dense register index; -1 while the register is absent
  int64_t start = 0;
  int64_t end = 0;
  double weight = 0;
  int assigned = -1;
};

/// Registers that may never spill: the reload/store temporaries of spill
/// code.  Indexed by kind and id, so the set survives the rounds' growing
/// register counts.
struct Unspillable {
  std::vector<uint8_t> byKind[2];

  void add(Reg r) {
    auto& v = byKind[static_cast<int>(r.kind)];
    if (static_cast<size_t>(r.id) >= v.size()) v.resize(r.id + 1, 0);
    v[r.id] = 1;
  }
  [[nodiscard]] bool has(Reg r) const {
    const auto& v = byKind[static_cast<int>(r.kind)];
    return static_cast<size_t>(r.id) < v.size() && v[r.id];
  }
};

struct Builder {
  const ir::Function& fn;
  const Unspillable& unspillable;
  ir::RegIndex regs;
  std::vector<Interval> intervals;  ///< by dense register index

  void build() {
    const Liveness lv = computeLiveness(fn);
    regs = lv.regs;
    intervals.assign(static_cast<size_t>(regs.size()), {});
    // Loop-body layout positions, for weighting.
    size_t loopFirst = 1, loopLast = 0;
    if (fn.loop.valid) {
      size_t h = fn.layoutIndex(fn.loop.header);
      size_t l = fn.layoutIndex(fn.loop.latch);
      if (h != static_cast<size_t>(-1) && l != static_cast<size_t>(-1)) {
        loopFirst = h;
        loopLast = l;
      }
    }

    int64_t pos = 0;
    for (size_t b = 0; b < fn.blocks.size(); ++b) {
      int64_t bStart = pos;
      double w = b >= loopFirst && b <= loopLast ? 64.0 : 1.0;
      for (const auto& in : fn.blocks[b].insts) {
        for (Reg r : usedRegs(in))
          if (r.isVirtual()) touch(regs(r), pos, w);
        Reg d = definedReg(in);
        if (d.valid() && d.isVirtual()) touch(regs(d), pos, w);
        ++pos;
      }
      int64_t bEnd = pos > bStart ? pos - 1 : bStart;
      // Live-through registers span the whole block.
      lv.liveIn[b].forEach([&](int32_t k) {
        if (regs.reg(k).isVirtual()) touch(k, bStart, 0);
      });
      lv.liveOut[b].forEach([&](int32_t k) {
        if (regs.reg(k).isVirtual()) touch(k, bEnd, 0);
      });
    }
    // Parameters are live from entry and must never spill; neither may
    // spill-code temporaries (see rewriteSpill).
    for (const auto& p : fn.params) {
      touch(regs(p.reg), 0, 0);
      intervals[regs(p.reg)].weight += 1e12;
    }
    for (Interval& iv : intervals)
      if (iv.reg >= 0 && unspillable.has(regs.reg(iv.reg))) iv.weight += 1e12;
  }

  void touch(int32_t k, int64_t pos, double weight) {
    Interval& iv = intervals[k];
    if (iv.reg < 0) {
      iv.reg = k;
      iv.start = pos;
      iv.end = pos;
    } else {
      iv.start = std::min(iv.start, pos);
      iv.end = std::max(iv.end, pos);
    }
    iv.weight += weight;
  }
};

/// One scan over one register class; returns the dense indices of the
/// vregs to spill (empty = fit) and records the others' registers in
/// `assignment`.
std::vector<int32_t> scanClass(std::vector<Interval> ivs, int numRegs,
                               RegAllocKind kind,
                               std::vector<int>* assignment) {
  std::sort(ivs.begin(), ivs.end(), [](const Interval& a, const Interval& b) {
    if (a.start != b.start) return a.start < b.start;
    return a.reg < b.reg;
  });
  std::vector<int32_t> spills;
  std::vector<Interval*> active;
  uint32_t freeRegs = (uint32_t{1} << numRegs) - 1;  // bit r: register r free

  for (auto& iv : ivs) {
    // Expire.
    for (size_t i = active.size(); i-- > 0;) {
      if (active[i]->end < iv.start) {
        freeRegs |= uint32_t{1} << active[i]->assigned;
        active.erase(active.begin() + static_cast<ptrdiff_t>(i));
      }
    }
    if (freeRegs != 0) {
      iv.assigned = std::countr_zero(freeRegs);
      freeRegs &= freeRegs - 1;
      active.push_back(&iv);
      continue;
    }
    // Choose a victim: cheapest weight (LinearScan) or furthest end (Basic),
    // considering the new interval itself.
    Interval* victim = &iv;
    auto density = [](const Interval* x) {
      // Spill cost per cycle of register occupancy: long, rarely-used
      // intervals are the cheapest to evict.
      return x->weight / static_cast<double>(x->end - x->start + 1);
    };
    for (Interval* a : active) {
      bool better;
      if (kind == RegAllocKind::LinearScan) {
        better = density(a) < density(victim);
      } else {
        // Basic: furthest end, but never an unspillable interval.
        bool aPinned = a->weight >= 1e12, vPinned = victim->weight >= 1e12;
        better = vPinned ? !aPinned : (!aPinned && a->end > victim->end);
      }
      if (better) victim = a;
    }
    if (victim == &iv) {
      spills.push_back(iv.reg);
      continue;
    }
    iv.assigned = victim->assigned;
    spills.push_back(victim->reg);
    victim->assigned = -1;
    active.erase(std::find(active.begin(), active.end(), victim));
    active.push_back(&iv);
  }
  for (const auto& iv : ivs)
    if (iv.assigned >= 0) (*assignment)[iv.reg] = iv.assigned;
  return spills;
}

/// Spill-everywhere rewriting for one vreg.  Freshly created reload/store
/// temporaries are recorded as unspillable: their live ranges are minimal,
/// and allowing them to spill again would make the rewrite diverge.
void rewriteSpill(ir::Function& fn, Reg v, int slot, Unspillable* unspillable) {
  Reg sp = Reg::intReg(ir::kSpillBaseReg);
  ir::Mem slotMem{.base = sp, .index = Reg::none(), .scale = 1,
                  .disp = static_cast<int64_t>(slot) * 16};
  auto mentionsV = [&](const Inst& in) {
    for (Reg r : usedRegs(in))
      if (r == v) return true;
    return definedReg(in) == v;
  };
  for (auto& bb : fn.blocks) {
    auto first = std::find_if(bb.insts.begin(), bb.insts.end(), mentionsV);
    if (first == bb.insts.end()) continue;
    std::vector<Inst> out(bb.insts.begin(), first);
    for (auto it = first; it != bb.insts.end(); ++it) {
      Inst in = *it;
      bool usesV = false;
      for (Reg r : usedRegs(in))
        if (r == v) usesV = true;
      bool defsV = definedReg(in) == v;
      if (usesV) {
        Reg tmp = v.kind == RegKind::Int ? fn.newIntReg() : fn.newFpReg();
        unspillable->add(tmp);
        out.push_back(v.kind == RegKind::Int
                          ? Inst{.op = Op::ILd, .dst = tmp, .mem = slotMem}
                          : Inst{.op = Op::VLd, .type = ir::Scal::F64,
                                 .dst = tmp, .mem = slotMem});
        auto sub = [&](Reg& r) {
          if (r == v) r = tmp;
        };
        sub(in.src1);
        sub(in.src2);
        sub(in.src3);
        sub(in.mem.base);
        sub(in.mem.index);
      }
      if (!defsV) {
        out.push_back(in);
        continue;
      }
      Reg tmp = v.kind == RegKind::Int ? fn.newIntReg() : fn.newFpReg();
      unspillable->add(tmp);
      in.dst = tmp;
      out.push_back(in);
      out.push_back(v.kind == RegKind::Int
                        ? Inst{.op = Op::ISt, .src1 = tmp, .mem = slotMem}
                        : Inst{.op = Op::VSt, .type = ir::Scal::F64,
                               .src1 = tmp, .mem = slotMem});
    }
    bb.insts = std::move(out);
  }
}

}  // namespace

RegAllocResult allocateRegisters(ir::Function& fn, RegAllocKind kind) {
  RegAllocResult result;
  int numSlots = 0;
  Unspillable unspillable;

  for (int round = 0; round < 12; ++round) {
    Builder b{fn, unspillable};
    b.build();

    std::vector<Interval> intIvs, fpIvs;
    for (const Interval& iv : b.intervals) {
      // Already-spilled vregs were fully rewritten away.
      if (iv.reg < 0) continue;
      if (b.regs.reg(iv.reg).kind == RegKind::Int)
        intIvs.push_back(iv);
      else
        fpIvs.push_back(iv);
    }
    std::vector<int> assignment(b.intervals.size(), -1);
    // Integer register 7 is the spill base; 0..6 are allocatable.
    std::vector<int32_t> spills =
        scanClass(std::move(intIvs), ir::kNumIntRegs - 1, kind, &assignment);
    for (int32_t k : scanClass(std::move(fpIvs), ir::kNumFpRegs, kind, &assignment))
      spills.push_back(k);

    if (spills.empty()) {
      // Apply the assignment.
      auto apply = [&](Reg& r) {
        if (!r.valid() || !r.isVirtual()) return;
        int a = b.regs.covers(r) ? assignment[b.regs(r)] : -1;
        r = Reg{r.kind, a < 0 ? 0 : a};
      };
      for (auto& bb : fn.blocks) {
        for (auto& in : bb.insts) {
          apply(in.dst);
          apply(in.src1);
          apply(in.src2);
          apply(in.src3);
          apply(in.mem.base);
          apply(in.mem.index);
        }
      }
      for (auto& p : fn.params) apply(p.reg);
      if (fn.loop.valid) {
        apply(fn.loop.ivar);
        apply(fn.loop.bound);
      }
      fn.regAllocated = true;
      fn.numSpillSlots = numSlots;
      result.ok = true;
      result.spillSlots = numSlots;
      result.spilledValues = numSlots;
      return result;
    }

    for (int32_t k : spills) {
      Reg v = b.regs.reg(k);
      for (const auto& p : fn.params)
        if (p.reg == v) {
          result.error = "register allocator tried to spill a parameter";
          return result;
        }
      // A spilled vreg is rewritten away entirely, so it never spills twice.
      rewriteSpill(fn, v, numSlots++, &unspillable);
    }
  }
  result.error = "register allocation did not converge";
  return result;
}

}  // namespace ifko::opt
