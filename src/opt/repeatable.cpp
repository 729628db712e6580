#include "opt/repeatable.h"

#include <iterator>
#include <vector>

#include "ir/cfg.h"
#include "ir/regset.h"
#include "opt/liveness.h"

namespace ifko::opt {

using ir::Inst;
using ir::Op;
using ir::Reg;

namespace {

/// Removes the elements whose flag is set, keeping the others in order.
template <typename T>
void eraseFlagged(std::vector<T>& v, const std::vector<uint8_t>& flagged) {
  size_t out = 0;
  for (size_t i = 0; i < v.size(); ++i) {
    if (flagged[i]) continue;
    if (out != i) v[out] = std::move(v[i]);
    ++out;
  }
  v.resize(out);
}

}  // namespace

bool copyPropagation(ir::Function& fn) {
  bool changed = false;
  const ir::RegIndex regs(fn);
  // dst -> src of an active copy (none when there is none), and the dsts
  // that have one.
  std::vector<Reg> copyOf(static_cast<size_t>(regs.size()));
  std::vector<int32_t> active;
  for (auto& bb : fn.blocks) {
    for (int32_t k : active) copyOf[k] = Reg::none();
    active.clear();
    // Drops the copy into r and every copy from r.
    auto invalidate = [&](Reg r) {
      const int32_t rk = regs(r);
      for (size_t a = active.size(); a-- > 0;) {
        const int32_t k = active[a];
        if (k != rk && !(copyOf[k] == r)) continue;
        copyOf[k] = Reg::none();
        active[a] = active.back();
        active.pop_back();
      }
    };
    for (auto& in : bb.insts) {
      const ir::OpInfo& info = ir::opInfo(in.op);
      auto substitute = [&](Reg& r) {
        if (!r.valid()) return;
        const Reg src = copyOf[regs(r)];
        if (src.valid()) {
          r = src;
          changed = true;
        }
      };
      if (info.numSrcs >= 1) substitute(in.src1);
      if (info.numSrcs >= 2) substitute(in.src2);
      if (info.numSrcs >= 3) substitute(in.src3);
      if (in.op == Op::Ret) substitute(in.src1);
      if (ir::touchesMem(in.op)) {
        substitute(in.mem.base);
        substitute(in.mem.index);
      }
      if (info.hasDst) invalidate(in.dst);
      if ((in.op == Op::IMov || in.op == Op::FMov || in.op == Op::VMov) &&
          !(in.dst == in.src1)) {
        copyOf[regs(in.dst)] = in.src1;
        active.push_back(regs(in.dst));
      }
    }
  }
  return changed;
}

bool deadCodeElim(ir::Function& fn) {
  bool changed = false;
  const ir::RegIndex regs(fn);

  // Dead induction cycles: a register whose only use is its own
  // `r = r + imm` update keeps itself alive; break the cycle explicitly.
  {
    std::vector<int32_t> useCount(static_cast<size_t>(regs.size()));
    for (const auto& bb : fn.blocks)
      for (const auto& in : bb.insts)
        for (Reg r : usedRegs(in)) ++useCount[regs(r)];
    for (const auto& p : fn.params) useCount[regs(p.reg)] += 1000;
    for (auto& bb : fn.blocks) {
      const size_t before = bb.insts.size();
      std::erase_if(bb.insts, [&](const Inst& in) {
        return in.op == Op::IAddI && in.dst == in.src1 &&
               useCount[regs(in.dst)] == 1;
      });
      changed |= bb.insts.size() != before;
    }
  }

  const Liveness lv = computeLiveness(fn);
  ir::RegSet live;
  std::vector<uint8_t> dead;
  for (size_t b = 0; b < fn.blocks.size(); ++b) {
    auto& insts = fn.blocks[b].insts;
    live = lv.liveOut[b];
    dead.assign(insts.size(), 0);
    bool any = false;
    // Backward scan, marking dead pure instructions.
    for (size_t i = insts.size(); i-- > 0;) {
      const Inst& in = insts[i];
      const ir::OpInfo& info = ir::opInfo(in.op);
      bool sideEffect = info.writesMem || info.isBranch || info.isTerminator ||
                        info.setsFlags || in.op == Op::Pref;
      Reg d = definedReg(in);
      if (!sideEffect && d.valid() && !live.test(regs(d))) {
        dead[i] = 1;
        any = true;
        continue;
      }
      if (d.valid()) live.reset(regs(d));
      for (Reg r : usedRegs(in)) live.set(regs(r));
    }
    if (!any) continue;
    eraseFlagged(insts, dead);
    changed = true;
  }
  return changed;
}

namespace {

Op foldedLoadOp(Op load, Op use) {
  if (load == Op::FLd && use == Op::FAdd) return Op::FAddM;
  if (load == Op::FLd && use == Op::FMul) return Op::FMulM;
  if (load == Op::VLd && use == Op::VAdd) return Op::VAddM;
  if (load == Op::VLd && use == Op::VMul) return Op::VMulM;
  return Op::Nop;
}

}  // namespace

bool peepholeLoadOp(ir::Function& fn) {
  bool changed = false;
  const Liveness lv = computeLiveness(fn);
  const ir::RegIndex& regs = lv.regs;
  std::vector<UsedRegs> used;
  std::vector<uint8_t> lastUse;  // bit k: used[i][k] is dead after inst i
  std::vector<uint8_t> erased;
  ir::RegSet live;
  for (size_t b = 0; b < fn.blocks.size(); ++b) {
    auto& insts = fn.blocks[b].insts;
    const size_t n = insts.size();
    // One backward pass records, for every register an instruction reads,
    // whether that read is its last before the end of the block or a
    // redefinition.  A fold only drops its own load's register from the
    // consumer (and adds integer address registers), and a later load of
    // that register cannot sit between the two, so the flags the later
    // loads consult stay valid while the block is rewritten.
    used.resize(n);
    lastUse.assign(n, 0);
    live = lv.liveOut[b];
    for (size_t i = n; i-- > 0;) {
      used[i] = usedRegs(insts[i]);
      for (size_t k = 0; k < used[i].size(); ++k)
        if (!live.test(regs(used[i][k]))) lastUse[i] |= uint8_t(1u << k);
      Reg d = definedReg(insts[i]);
      if (d.valid()) live.reset(regs(d));
      for (Reg r : used[i]) live.set(regs(r));
    }

    erased.assign(n, 0);
    bool any = false;
    for (size_t i = 0; i < n; ++i) {
      const Inst& load = insts[i];
      if (load.op != Op::FLd && load.op != Op::VLd) continue;
      const Reg t = load.dst;
      if (lv.liveOut[b].test(regs(t))) continue;

      // Find the first consumer within the block.  Before it, no store may
      // intervene (conservative aliasing) and neither the loaded register
      // nor the address registers may be redefined; after it, the loaded
      // register must be dead.
      size_t useIdx = SIZE_MAX;
      for (size_t j = i + 1; j < n; ++j) {
        const Inst& in = insts[j];
        bool usesT = false;
        for (Reg r : usedRegs(in))
          if (r == t) usesT = true;
        if (usesT) {
          useIdx = j;
          break;
        }
        const ir::OpInfo& info = ir::opInfo(in.op);
        if (info.writesMem ||
            (info.hasDst && (in.dst == t || in.dst == load.mem.base ||
                             in.dst == load.mem.index)))
          break;
      }
      if (useIdx == SIZE_MAX) continue;
      // A second read of t before its redefinition blocks the fold.
      bool deadAfter = false;
      for (size_t k = 0; k < used[useIdx].size(); ++k)
        if (used[useIdx][k] == t) deadAfter = (lastUse[useIdx] >> k) & 1;
      if (!deadAfter) continue;

      Inst& use = insts[useIdx];
      const Op newOp = foldedLoadOp(load.op, use.op);
      if (newOp == Op::Nop) continue;
      if (use.src1 == t && use.src2 == t) continue;
      // Commutative: put the register operand in src1.
      Reg other = use.src1 == t ? use.src2 : use.src1;
      use.op = newOp;
      use.src1 = other;
      use.src2 = Reg::none();
      use.mem = load.mem;
      erased[i] = 1;
      any = true;
    }
    if (!any) continue;
    eraseFlagged(insts, erased);
    changed = true;
  }
  return changed;
}

bool branchChaining(ir::Function& fn) {
  bool changed = false;
  // Resolve each branch target through empty/jump-only blocks.
  auto resolve = [&](int32_t target) {
    for (int hops = 0; hops < 8; ++hops) {
      size_t pos = fn.layoutIndex(target);
      if (pos == static_cast<size_t>(-1)) return target;
      const ir::BasicBlock& bb = fn.blocks[pos];
      if (bb.insts.empty()) {
        if (pos + 1 >= fn.blocks.size()) return target;
        target = fn.blocks[pos + 1].id;
        continue;
      }
      if (bb.insts.size() == 1 && bb.insts[0].op == Op::Jmp) {
        if (bb.insts[0].label == target) return target;  // self loop
        target = bb.insts[0].label;
        continue;
      }
      return target;
    }
    return target;
  };
  for (auto& bb : fn.blocks) {
    for (auto& in : bb.insts) {
      if (!ir::opInfo(in.op).isBranch) continue;
      int32_t t = resolve(in.label);
      if (t != in.label) {
        in.label = t;
        changed = true;
      }
    }
  }
  return changed;
}

bool uselessJumpElim(ir::Function& fn) {
  bool changed = false;
  for (size_t i = 0; i + 1 < fn.blocks.size(); ++i) {
    auto& bb = fn.blocks[i];
    if (bb.insts.empty()) continue;
    Inst& last = bb.insts.back();
    if (last.op == Op::Jmp && last.label == fn.blocks[i + 1].id) {
      bb.insts.pop_back();
      changed = true;
    }
  }
  return changed;
}

bool removeUnreachable(ir::Function& fn) {
  if (fn.blocks.empty()) return false;
  const ir::Cfg cfg = ir::buildCfg(fn);
  std::vector<uint8_t> unreached(fn.blocks.size(), 1);
  std::vector<int32_t> work = {0};
  unreached[0] = 0;
  while (!work.empty()) {
    int32_t pos = work.back();
    work.pop_back();
    for (int32_t s : cfg.succs[pos])
      if (unreached[s]) {
        unreached[s] = 0;
        work.push_back(s);
      }
  }
  const size_t before = fn.blocks.size();
  eraseFlagged(fn.blocks, unreached);
  return fn.blocks.size() != before;
}

bool mergeBlocks(ir::Function& fn) {
  // Only a fall-through-only block b merges with its successor c, and only
  // when c's one predecessor is b and no branch targets c.  The merged block
  // then has b's predecessors and c's successors, so no surviving block's
  // predecessor count or branch references change: both are counted once,
  // by original layout position.
  const ir::Cfg cfg = ir::buildCfg(fn);
  const std::vector<int32_t> posOf = ir::layoutPositions(fn);
  std::vector<int32_t> branchRefs(fn.blocks.size(), 0);
  for (const auto& bb : fn.blocks)
    for (const auto& in : bb.insts)
      if (ir::opInfo(in.op).isBranch && in.label >= 0 &&
          static_cast<size_t>(in.label) < posOf.size() && posOf[in.label] >= 0)
        ++branchRefs[posOf[in.label]];

  size_t out = 0;
  for (size_t i = 0; i < fn.blocks.size(); ++i) {
    ir::BasicBlock& c = fn.blocks[i];
    if (out > 0) {
      ir::BasicBlock& b = fn.blocks[out - 1];
      bool bFallsOnly =
          b.insts.empty() || (!ir::opInfo(b.insts.back().op).isBranch &&
                              !ir::opInfo(b.insts.back().op).isTerminator);
      if (bFallsOnly && branchRefs[i] == 0 && cfg.preds[i].size() == 1) {
        // Merge c into b.
        b.insts.insert(b.insts.end(), std::make_move_iterator(c.insts.begin()),
                       std::make_move_iterator(c.insts.end()));
        // Keep loop metadata coherent.
        if (fn.loop.valid) {
          if (fn.loop.header == c.id) fn.loop.header = b.id;
          if (fn.loop.latch == c.id) fn.loop.latch = b.id;
          if (fn.loop.exit == c.id) fn.loop.exit = b.id;
          if (fn.loop.preheader == c.id) fn.loop.preheader = b.id;
        }
        continue;
      }
    }
    if (out != i) fn.blocks[out] = std::move(c);
    ++out;
  }
  const bool changed = out != fn.blocks.size();
  fn.blocks.resize(out);
  return changed;
}

RepeatableReport runRepeatableReport(ir::Function& fn, int maxIters) {
  static constexpr struct {
    const char* name;
    bool (*run)(ir::Function&);
  } kPasses[] = {
      {"copy-prop", copyPropagation},   {"dce", deadCodeElim},
      {"peephole", peepholeLoadOp},     {"branch-chain", branchChaining},
      {"jump-elim", uselessJumpElim},   {"unreachable", removeUnreachable},
      {"merge-blocks", mergeBlocks},
  };
  constexpr size_t kNumPasses = std::size(kPasses);

  RepeatableReport report;
  report.passes.resize(kNumPasses);
  for (size_t p = 0; p < kNumPasses; ++p)
    report.passes[p].name = kPasses[p].name;

  bool lastChanged = false;
  for (int iter = 0; iter < maxIters; ++iter) {
    lastChanged = false;
    for (size_t p = 0; p < kNumPasses; ++p) {
      PassDelta& delta = report.passes[p];
      size_t before = fn.instCount();
      bool changed = kPasses[p].run(fn);
      if (changed) {
        if (!delta.changed) delta.instsBefore = before;
        delta.instsAfter = fn.instCount();
        delta.changed = true;
        ++delta.iterations;
      }
      lastChanged |= changed;
    }
    if (!lastChanged) break;
    ++report.iterations;
  }
  // Converged iff the loop exited because a sweep was a no-op; if the cap
  // cut off a still-changing sequence, the fixed point was not reached.
  report.converged = !lastChanged;
  return report;
}

int runRepeatable(ir::Function& fn, int maxIters) {
  return runRepeatableReport(fn, maxIters).iterations;
}

}  // namespace ifko::opt
