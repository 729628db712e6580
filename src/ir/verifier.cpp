#include "ir/verifier.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "ir/cfg.h"
#include "ir/regset.h"

namespace ifko::ir {

namespace {

class Verifier {
 public:
  explicit Verifier(const Function& fn) : fn_(fn) {}

  std::vector<std::string> run() {
    checkBlocks();
    checkInstructions();
    if (!fn_.regAllocated) checkDefBeforeUse();
    return std::move(problems_);
  }

 private:
  template <typename... Args>
  void problem(Args&&... args) {
    std::ostringstream os;
    (os << ... << args);
    problems_.push_back(os.str());
  }

  void checkBlocks() {
    std::set<int32_t> ids;
    for (const auto& bb : fn_.blocks) {
      if (!ids.insert(bb.id).second) problem("duplicate block id bb", bb.id);
    }
    for (size_t i = 0; i < fn_.blocks.size(); ++i) {
      const BasicBlock& bb = fn_.blocks[i];
      for (size_t j = 0; j < bb.insts.size(); ++j) {
        const Inst& in = bb.insts[j];
        const OpInfo& info = opInfo(in.op);
        bool isLast = j + 1 == bb.insts.size();
        // A conditional branch may be followed by the block's final
        // unconditional jump (the explicit-else ending).
        bool isJccBeforeFinalJmp = in.op == Op::Jcc &&
                                   j + 2 == bb.insts.size() &&
                                   bb.insts[j + 1].op == Op::Jmp;
        if ((info.isBranch || info.isTerminator) && !isLast &&
            !isJccBeforeFinalJmp)
          problem("bb", bb.id, ": branch/terminator not last: ", in.str());
        if (info.isBranch && ids.count(in.label) == 0)
          problem("bb", bb.id, ": branch to unknown block bb", in.label);
      }
      bool lastInLayout = i + 1 == fn_.blocks.size();
      if (lastInLayout && bb.fallsThrough())
        problem("bb", bb.id, ": final block falls off the end of the function");
    }
  }

  void checkReg(const BasicBlock& bb, const Inst& in, Reg r, RegKind want,
                const char* role) {
    if (!r.valid()) {
      problem("bb", bb.id, ": missing ", role, " in: ", in.str());
      return;
    }
    if (r.kind != want)
      problem("bb", bb.id, ": wrong register class for ", role,
              " in: ", in.str());
    if (fn_.regAllocated) {
      if (r.isVirtual())
        problem("bb", bb.id, ": virtual register after regalloc in: ", in.str());
      int limit = r.kind == RegKind::Int ? kNumIntRegs : kNumFpRegs;
      if (r.id >= limit)
        problem("bb", bb.id, ": physical register out of range in: ", in.str());
    }
  }

  void checkInstructions() {
    for (const auto& bb : fn_.blocks) {
      for (const auto& in : bb.insts) {
        const OpInfo& info = opInfo(in.op);
        if (info.hasDst) checkReg(bb, in, in.dst, info.dstKind, "dst");
        if (info.numSrcs >= 1) checkReg(bb, in, in.src1, info.srcKind, "src1");
        if (info.numSrcs >= 2) checkReg(bb, in, in.src2, info.srcKind, "src2");
        if (info.numSrcs >= 3) checkReg(bb, in, in.src3, info.srcKind, "src3");
        if (touchesMem(in.op)) {
          checkReg(bb, in, in.mem.base, RegKind::Int, "mem base");
          if (in.mem.hasIndex())
            checkReg(bb, in, in.mem.index, RegKind::Int, "mem index");
        }
        if (in.op == Op::Ret) {
          bool wantsValue = fn_.retType != RetType::None;
          if (wantsValue && !in.src1.valid())
            problem("bb", bb.id, ": ret without value");
          if (wantsValue && in.src1.valid()) {
            RegKind want =
                fn_.retType == RetType::Int ? RegKind::Int : RegKind::Fp;
            if (in.src1.kind != want)
              problem("bb", bb.id, ": ret value register class mismatch");
          }
        }
        if ((in.op == Op::FLd || in.op == Op::FSt || in.op == Op::FStNT ||
             in.op == Op::FAddM || in.op == Op::FMulM || info.isVector) &&
            in.type == Scal::I64 && in.op != Op::VMovMsk)
          problem("bb", bb.id, ": FP/vector op with integer type: ", in.str());
      }
    }
  }

  /// Forward may-be-undefined analysis over virtual registers: a register
  /// used in block B must be defined on every path from entry to that use.
  void checkDefBeforeUse() {
    // Number the registers densely, up to the function's counters.
    // Hand-built IR may name registers past the counters, so the numbering
    // also covers the largest id used (IR text bounds ids at parse time).
    int32_t numInt = fn_.maxIntReg(), numFp = fn_.maxFpReg();
    auto cover = [&](Reg r) {
      if (!r.valid()) return;
      int32_t& bound = r.kind == RegKind::Int ? numInt : numFp;
      bound = std::max(bound, r.id + 1);
    };
    for (const auto& p : fn_.params) cover(p.reg);
    for (const auto& bb : fn_.blocks)
      for (const auto& i : bb.insts)
        for (Reg r : {i.dst, i.src1, i.src2, i.src3, i.mem.base, i.mem.index})
          cover(r);
    const RegIndex regs(numInt, numFp);
    const int32_t numRegs = regs.size();
    const size_t n = fn_.blocks.size();

    // Collect definitely-defined-at-exit per block via iterative dataflow:
    // defined_in(B) = intersect over preds(defined_out(P)); entry has params.
    const Cfg cfg = buildCfg(fn_);
    std::vector<RegSet> defs(n, RegSet(numRegs));
    for (size_t b = 0; b < n; ++b)
      for (const auto& i : fn_.blocks[b].insts)
        if (opInfo(i.op).hasDst && i.dst.valid()) defs[b].set(regs(i.dst));
    RegSet entry(numRegs);
    for (const auto& p : fn_.params)
      if (p.reg.valid()) entry.set(regs(p.reg));

    std::vector<RegSet> out(n, RegSet(numRegs));
    std::vector<uint8_t> visited(n, 0);
    RegSet in(numRegs);
    // in(B): entry's parameters and the intersection of the outs of B's
    // predecessors reached so far; false when none is reached yet.
    auto meet = [&](size_t b) {
      bool first = true;
      if (b == 0) {
        in = entry;
        first = false;
      }
      for (int32_t p : cfg.preds[b]) {
        if (!visited[p]) continue;  // unreached yet: ignore
        if (first) {
          in = out[p];
          first = false;
        } else {
          in &= out[p];
        }
      }
      return !first;
    };

    // Start optimistically (an unreached predecessor is ignored), then
    // iterate in layout order to a fixed point.
    bool changed = true;
    int iterations = 0;
    while (changed && iterations < 100) {
      changed = false;
      ++iterations;
      for (size_t b = 0; b < n; ++b) {
        if (!meet(b)) continue;  // unreachable so far
        in |= defs[b];
        if (!visited[b] || in != out[b]) {
          std::swap(out[b], in);
          visited[b] = 1;
          changed = true;
        }
      }
    }

    // Now scan each block with its computed "in" set.
    for (size_t b = 0; b < n; ++b) {
      const BasicBlock& bb = fn_.blocks[b];
      if (!visited[b]) continue;  // unreachable code: skip
      meet(b);
      auto use = [&](const Inst& inst, Reg r, const char* role) {
        if (r.valid() && r.isVirtual() && !in.test(regs(r)))
          problem("bb", bb.id, ": ", role,
                  " possibly used before definition in: ", inst.str());
      };
      for (const auto& inst : bb.insts) {
        const OpInfo& info = opInfo(inst.op);
        if (info.numSrcs >= 1) use(inst, inst.src1, "src1");
        if (info.numSrcs >= 2) use(inst, inst.src2, "src2");
        if (info.numSrcs >= 3) use(inst, inst.src3, "src3");
        if (inst.op == Op::Ret) use(inst, inst.src1, "ret value");
        if (touchesMem(inst.op)) {
          use(inst, inst.mem.base, "mem base");
          if (inst.mem.hasIndex()) use(inst, inst.mem.index, "mem index");
        }
        if (info.hasDst && inst.dst.valid()) in.set(regs(inst.dst));
      }
    }
  }

  const Function& fn_;
  std::vector<std::string> problems_;
};

}  // namespace

std::vector<std::string> verify(const Function& fn) {
  return Verifier(fn).run();
}

}  // namespace ifko::ir
