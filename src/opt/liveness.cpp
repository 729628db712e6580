#include "opt/liveness.h"

#include "ir/cfg.h"

namespace ifko::opt {

UsedRegs usedRegs(const ir::Inst& in) {
  UsedRegs out;
  const ir::OpInfo& info = ir::opInfo(in.op);
  if (info.numSrcs >= 1 && in.src1.valid()) out.push(in.src1);
  if (info.numSrcs >= 2 && in.src2.valid()) out.push(in.src2);
  if (info.numSrcs >= 3 && in.src3.valid()) out.push(in.src3);
  if (in.op == ir::Op::Ret && in.src1.valid()) out.push(in.src1);
  if (ir::touchesMem(in.op)) {
    if (in.mem.base.valid()) out.push(in.mem.base);
    if (in.mem.index.valid()) out.push(in.mem.index);
  }
  return out;
}

ir::Reg definedReg(const ir::Inst& in) {
  return ir::opInfo(in.op).hasDst ? in.dst : ir::Reg::none();
}

Liveness computeLiveness(const ir::Function& fn) {
  const size_t numBlocks = fn.blocks.size();
  Liveness lv;
  lv.regs = ir::RegIndex(fn);
  const int32_t numRegs = lv.regs.size();
  // Upward-exposed uses and definitions per block.
  std::vector<ir::RegSet> use(numBlocks, ir::RegSet(numRegs));
  std::vector<ir::RegSet> def(numBlocks, ir::RegSet(numRegs));
  for (size_t b = 0; b < numBlocks; ++b) {
    for (const auto& in : fn.blocks[b].insts) {
      for (ir::Reg r : usedRegs(in)) {
        const int32_t k = lv.regs(r);
        if (!def[b].test(k)) use[b].set(k);
      }
      ir::Reg w = definedReg(in);
      if (w.valid()) def[b].set(lv.regs(w));
    }
  }
  lv.liveIn.assign(numBlocks, ir::RegSet(numRegs));
  lv.liveOut.assign(numBlocks, ir::RegSet(numRegs));

  const ir::Cfg cfg = ir::buildCfg(fn);
  ir::RegSet out(numRegs), in(numRegs);
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t b = numBlocks; b-- > 0;) {
      out.clear();
      for (int32_t s : cfg.succs[b]) out |= lv.liveIn[s];
      in.assignTransfer(use[b], out, def[b]);
      if (out != lv.liveOut[b] || in != lv.liveIn[b]) {
        std::swap(lv.liveOut[b], out);
        std::swap(lv.liveIn[b], in);
        changed = true;
      }
    }
  }
  return lv;
}

}  // namespace ifko::opt
