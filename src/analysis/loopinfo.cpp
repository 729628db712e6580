#include "analysis/loopinfo.h"

#include <algorithm>
#include <set>

#include "ir/cfg.h"

namespace ifko::analysis {

using ir::Inst;
using ir::Op;
using ir::Reg;

namespace {

bool usesReg(const Inst& in, Reg r) {
  const ir::OpInfo& info = ir::opInfo(in.op);
  if (info.numSrcs >= 1 && in.src1 == r) return true;
  if (info.numSrcs >= 2 && in.src2 == r) return true;
  if (info.numSrcs >= 3 && in.src3 == r) return true;
  if (in.op == Op::Ret && in.src1 == r) return true;
  if (ir::touchesMem(in.op) && (in.mem.base == r || in.mem.index == r))
    return true;
  return false;
}

}  // namespace

LoopInfo analyzeLoop(const ir::Function& fn) {
  LoopInfo info;
  if (!fn.loop.valid) {
    info.problem = "no loop flagged for tuning";
    return info;
  }
  const ir::LoopMark& loop = fn.loop;

  // --- natural-loop membership: reverse walk from the latch to the header --
  const ir::Cfg cfg = ir::buildCfg(fn);
  std::set<int32_t> members = {loop.header, loop.latch};
  std::vector<int32_t> work = {loop.latch};
  while (!work.empty()) {
    int32_t b = work.back();
    work.pop_back();
    if (b == loop.header) continue;
    size_t pos = fn.layoutIndex(b);
    if (pos == static_cast<size_t>(-1)) continue;
    for (int32_t p : cfg.preds[pos]) {
      if (members.insert(fn.blocks[p].id).second) work.push_back(fn.blocks[p].id);
    }
  }

  // --- hot chain: layout-contiguous run from header to latch ---------------
  size_t headerPos = fn.layoutIndex(loop.header);
  size_t latchPos = fn.layoutIndex(loop.latch);
  if (headerPos == static_cast<size_t>(-1) ||
      latchPos == static_cast<size_t>(-1) || latchPos < headerPos) {
    info.problem = "loop blocks not in canonical layout";
    return info;
  }
  for (size_t i = headerPos; i <= latchPos; ++i) {
    int32_t id = fn.blocks[i].id;
    if (members.count(id) == 0) {
      info.problem = "non-loop block interleaved with the loop body";
      return info;
    }
    info.hotBlocks.push_back(id);
  }
  for (int32_t id : members)
    if (std::find(info.hotBlocks.begin(), info.hotBlocks.end(), id) ==
        info.hotBlocks.end())
      info.sideBlocks.push_back(id);

  // --- latch tail contract ---------------------------------------------------
  const ir::BasicBlock& latch = fn.block(loop.latch);
  if (latch.insts.size() < 3) {
    info.problem = "latch too short for canonical tail";
    return info;
  }
  size_t n = latch.insts.size();
  const Inst& backedge = latch.insts[n - 1];
  const Inst& cmp = latch.insts[n - 2];
  const Inst& upd = latch.insts[n - 3];
  if (backedge.op != Op::Jcc || backedge.label != loop.header ||
      (cmp.op != Op::ICmp && cmp.op != Op::ICmpI) || upd.op != Op::IAddI ||
      upd.dst != loop.ivar) {
    info.problem = "latch tail does not match [ivar update, cmp, backedge]";
    return info;
  }
  info.backedgeIdx = n - 1;
  info.cmpIdx = n - 2;
  info.ivarUpdateIdx = n - 3;

  // --- arrays: bumps immediately before the tail ----------------------------
  size_t firstBump = info.ivarUpdateIdx;
  for (size_t i = info.ivarUpdateIdx; i-- > 0;) {
    const Inst& in = latch.insts[i];
    bool isBump = in.op == Op::IAddI && in.dst == in.src1;
    if (!isBump) break;
    const ir::Param* p = nullptr;
    for (const auto& param : fn.params)
      if (param.reg == in.dst && param.isPointer()) p = &param;
    if (p == nullptr) break;
    firstBump = i;
  }
  info.firstBumpIdx = firstBump;

  for (const auto& param : fn.params) {
    if (!param.isPointer()) continue;
    ArrayInfo a;
    a.name = param.name;
    a.ptr = param.reg;
    a.elem = param.elemType();
    a.noPrefetch = param.noPrefetch;
    for (size_t i = firstBump; i < info.ivarUpdateIdx; ++i) {
      const Inst& in = latch.insts[i];
      if (in.op == Op::IAddI && in.dst == param.reg) a.bumpBytes = in.imm;
    }
    // Sets/uses over the whole loop body.
    for (int32_t bid : info.hotBlocks) {
      const auto& bb = fn.block(bid);
      size_t limit = bid == loop.latch ? firstBump : bb.insts.size();
      for (size_t i = 0; i < limit; ++i) {
        const Inst& in = bb.insts[i];
        if (!ir::touchesMem(in.op) || in.mem.base != param.reg) continue;
        if (ir::opInfo(in.op).readsMem) a.loaded = true;
        if (ir::opInfo(in.op).writesMem) a.stored = true;
      }
    }
    for (int32_t bid : info.sideBlocks) {
      for (const Inst& in : fn.block(bid).insts) {
        if (!ir::touchesMem(in.op) || in.mem.base != param.reg) continue;
        if (ir::opInfo(in.op).readsMem) a.loaded = true;
        if (ir::opInfo(in.op).writesMem) a.stored = true;
      }
    }
    info.arrays.push_back(std::move(a));
  }

  // --- iterate over "iteration code" (body minus bumps+tail) ---------------
  auto forEachIterationInst = [&](auto&& f) {
    for (int32_t bid : info.hotBlocks) {
      const auto& bb = fn.block(bid);
      size_t limit = bid == loop.latch ? firstBump : bb.insts.size();
      for (size_t i = 0; i < limit; ++i) f(fn.block(bid).insts[i]);
    }
    for (int32_t bid : info.sideBlocks)
      for (const Inst& in : fn.block(bid).insts) f(in);
  };

  // --- accumulator candidates -----------------------------------------------
  {
    std::set<int32_t> fpDefs;
    forEachIterationInst([&](const Inst& in) {
      if (ir::opInfo(in.op).hasDst && in.dst.kind == ir::RegKind::Fp)
        fpDefs.insert(in.dst.id);
    });
    for (int32_t id : fpDefs) {
      Reg r = Reg::fpReg(id);
      bool ok = true;
      bool hasAccumAdd = false;
      forEachIterationInst([&](const Inst& in) {
        bool isAccumAdd = in.op == Op::FAdd && in.dst == r &&
                          (in.src1 == r || in.src2 == r) &&
                          !(in.src1 == r && in.src2 == r);
        if (isAccumAdd) {
          hasAccumAdd = true;
          return;
        }
        if ((ir::opInfo(in.op).hasDst && in.dst == r) || usesReg(in, r))
          ok = false;
      });
      // Must be initialized before the loop (defined outside the body).
      bool definedOutside = false;
      std::set<int32_t> bodySet(info.hotBlocks.begin(), info.hotBlocks.end());
      for (int32_t sid : info.sideBlocks) bodySet.insert(sid);
      for (const auto& bb : fn.blocks) {
        if (bodySet.count(bb.id)) continue;
        for (const Inst& in : bb.insts)
          if (ir::opInfo(in.op).hasDst && in.dst == r) definedOutside = true;
      }
      for (const auto& p : fn.params)
        if (p.reg == r) definedOutside = true;
      if (ok && hasAccumAdd && definedOutside) info.accumulators.push_back(r);
    }
  }

  // --- loop-variable usage ---------------------------------------------------
  {
    size_t idx = 0;
    for (int32_t bid : info.hotBlocks) {
      const auto& bb = fn.block(bid);
      for (size_t i = 0; i < bb.insts.size(); ++i) {
        if (bid == loop.latch && i >= info.ivarUpdateIdx) continue;
        if (usesReg(bb.insts[i], loop.ivar)) info.ivarUsedInBody = true;
      }
      ++idx;
    }
    for (int32_t bid : info.sideBlocks)
      for (const Inst& in : fn.block(bid).insts)
        if (usesReg(in, loop.ivar)) info.ivarUsedInBody = true;
    std::set<int32_t> bodySet(info.hotBlocks.begin(), info.hotBlocks.end());
    for (int32_t sid : info.sideBlocks) bodySet.insert(sid);
    for (const auto& bb : fn.blocks) {
      if (bodySet.count(bb.id) || bb.id == loop.preheader) continue;
      for (const Inst& in : bb.insts)
        if (usesReg(in, loop.ivar)) info.ivarUsedAfterLoop = true;
    }
  }

  // --- vectorizability --------------------------------------------------------
  info.vectorizable = true;
  if (!info.sideBlocks.empty()) {
    info.vectorizable = false;
    info.whyNotVectorizable = "loop body has control flow (side blocks)";
  }
  if (info.vectorizable) {
    for (size_t i = 0; i + 1 < info.hotBlocks.size(); ++i) {
      const auto& bb = fn.block(info.hotBlocks[i]);
      for (const Inst& in : bb.insts)
        if (ir::opInfo(in.op).isBranch || in.op == Op::Ret) {
          info.vectorizable = false;
          info.whyNotVectorizable = "loop body has internal branches";
        }
    }
  }
  if (info.vectorizable && info.ivarUsedInBody) {
    info.vectorizable = false;
    info.whyNotVectorizable = "loop variable used in body";
  }
  if (info.vectorizable) {
    // SIMD loads/stores require unit stride: every accessed array must
    // advance by exactly one element per iteration.
    for (const auto& a : info.arrays) {
      bool accessed = a.loaded || a.stored;
      if (accessed && a.bumpBytes != scalBytes(a.elem)) {
        info.vectorizable = false;
        info.whyNotVectorizable =
            "array '" + a.name + "' is not accessed with unit stride";
      }
    }
  }
  if (info.vectorizable) {
    std::set<int32_t> accums;
    for (Reg r : info.accumulators) accums.insert(r.id);
    // Registers the body defines anywhere (for invariance checking).
    std::set<int32_t> fpDefinedAnywhere;
    forEachIterationInst([&](const Inst& in) {
      if (ir::opInfo(in.op).hasDst && in.dst.kind == ir::RegKind::Fp)
        fpDefinedAnywhere.insert(in.dst.id);
    });
    std::set<int32_t> fpDefined;
    std::set<int32_t> invariants;
    forEachIterationInst([&](const Inst& in) {
      if (!info.vectorizable) return;
      switch (in.op) {
        case Op::FLd: case Op::FSt: case Op::FStNT: case Op::FMov:
        case Op::FAdd: case Op::FSub: case Op::FMul: case Op::FAbs:
        case Op::FMax: case Op::FLdI:
          break;  // vectorizable FP ops
        case Op::FDiv: case Op::FCmp: case Op::FNeg:
        case Op::FAddM: case Op::FMulM:
          info.vectorizable = false;
          info.whyNotVectorizable =
              std::string("unsupported FP operation ") +
              std::string(ir::opInfo(in.op).name);
          return;
        default:
          if (ir::opInfo(in.op).isVector) {
            info.vectorizable = false;
            info.whyNotVectorizable = "already vectorized";
            return;
          }
          // Integer computation inside the iteration code.
          if (in.op != Op::Nop) {
            info.vectorizable = false;
            info.whyNotVectorizable =
                std::string("integer computation in body: ") +
                std::string(ir::opInfo(in.op).name);
            return;
          }
      }
      // FP operands must be temps defined in the body, accumulators, or
      // loop-invariant inputs (never redefined by the body -- parameters
      // and outer-loop scalars); carried values like iamax's running max
      // cannot be widened safely.
      auto checkSrc = [&](Reg r) {
        if (!r.valid() || r.kind != ir::RegKind::Fp) return;
        if (fpDefined.count(r.id) || accums.count(r.id)) return;
        if (!fpDefinedAnywhere.count(r.id)) {
          invariants.insert(r.id);
          return;
        }
        info.vectorizable = false;
        info.whyNotVectorizable =
            "loop-carried FP value is not an accumulator";
      };
      const ir::OpInfo& oi = ir::opInfo(in.op);
      if (oi.numSrcs >= 1) checkSrc(in.src1);
      if (oi.numSrcs >= 2) checkSrc(in.src2);
      if (oi.hasDst && in.dst.kind == ir::RegKind::Fp) fpDefined.insert(in.dst.id);
    });
    for (int32_t id : invariants)
      info.invariantFpInputs.push_back(Reg::fpReg(id));
  }

  info.found = true;
  return info;
}

}  // namespace ifko::analysis
