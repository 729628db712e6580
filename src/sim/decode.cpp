#include "sim/decode.h"

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <unordered_map>

#include "sim/budget.h"

namespace ifko::sim {

using ir::Op;
using ir::Scal;

namespace {

// The condition flags set by compares and IAddCC.
struct Flags {
  bool lt = false;
  bool eq = false;

  [[nodiscard]] bool test(ir::Cond c) const {
    switch (c) {
      case ir::Cond::EQ: return eq;
      case ir::Cond::NE: return !eq;
      case ir::Cond::LT: return lt;
      case ir::Cond::LE: return lt || eq;
      case ir::Cond::GT: return !lt && !eq;
      case ir::Cond::GE: return !lt;
    }
    return false;
  }
};

/// Flattens `fn`; `machine` (null = no costs) supplies the dispatch costs.
DecodedFunction decode(const ir::Function& fn,
                       const arch::MachineConfig* machine) {
  DecodedFunction out;
  out.params = fn.params;
  out.retType = fn.retType;
  out.regAllocated = fn.regAllocated;
  out.numSpillSlots = fn.numSpillSlots;
  out.maxIntReg = fn.maxIntReg();
  out.maxFpReg = fn.maxFpReg();
  out.numBlocks = fn.blocks.size();
  if (machine != nullptr) out.machine = machine->name;

  // Flat start index of each block in layout order.  A branch to an empty
  // block resolves to the first instruction after it, which is where
  // falling through the empty block lands.
  std::unordered_map<int32_t, uint32_t> start;
  start.reserve(fn.blocks.size());
  uint32_t idx = 0;
  for (const auto& bb : fn.blocks) {
    start[bb.id] = idx;
    idx += static_cast<uint32_t>(bb.insts.size());
  }
  out.insts.reserve(idx);

  for (const auto& bb : fn.blocks) {
    for (size_t i = 0; i < bb.insts.size(); ++i) {
      DecodedInst d;
      d.inst = bb.insts[i];
      d.pcId = (static_cast<uint64_t>(bb.id) << 20) | i;
      if (machine != nullptr) d.cost = instCost(d.inst, *machine);
      if (d.inst.op == Op::Jmp || d.inst.op == Op::Jcc) {
        auto it = start.find(d.inst.label);
        if (it == start.end())
          throw std::runtime_error("decodeFunction: branch to unknown block");
        d.target = it->second;
      }
      out.insts.push_back(d);
    }
  }
  return out;
}

}  // namespace

DecodedFunction decodeFunction(const ir::Function& fn,
                               const arch::MachineConfig& machine) {
  return decode(fn, &machine);
}

DecodedFunction decodeFunction(const ir::Function& fn) {
  return decode(fn, nullptr);
}

RunResult runDecoded(const DecodedFunction& dfn, Memory& mem,
                     std::span<const ArgValue> args, TimingModel* timing,
                     uint64_t maxDynInsts) {
  if (timing != nullptr && dfn.machine != timing->machine().name)
    throw std::invalid_argument(
        dfn.machine.empty()
            ? "runDecoded: timed run of a function decoded without costs"
            : "runDecoded: function decoded for " + dfn.machine +
                  ", timed on " + timing->machine().name);
  if (args.size() != dfn.params.size())
    throw std::runtime_error("runDecoded: argument count mismatch");
  if (dfn.empty()) throw std::runtime_error("runDecoded: empty function");

  const size_t nInt = std::max<size_t>(dfn.maxIntReg, ir::kVirtBase);
  const size_t nFp = std::max<size_t>(dfn.maxFpReg, ir::kVirtBase);
  std::vector<int64_t> iregs(nInt, 0);
  std::vector<VReg16> fregs(nFp);
  Flags flags;

  if (dfn.regAllocated && dfn.numSpillSlots > 0) {
    uint64_t base =
        mem.allocate(static_cast<size_t>(dfn.numSpillSlots) * 16, 16);
    iregs[ir::kSpillBaseReg] = static_cast<int64_t>(base);
  }

  for (size_t i = 0; i < dfn.params.size(); ++i) {
    const ir::Param& p = dfn.params[i];
    if (p.kind == ir::ParamKind::ScalF32) {
      fregs[p.reg.id].setF(0, static_cast<float>(std::get<double>(args[i])));
    } else if (p.kind == ir::ParamKind::ScalF64) {
      fregs[p.reg.id].setD(0, std::get<double>(args[i]));
    } else {
      iregs[p.reg.id] = std::get<int64_t>(args[i]);
    }
  }

  auto effAddr = [&](const ir::Mem& m) -> uint64_t {
    int64_t a = iregs[m.base.id];
    if (m.hasIndex()) a += iregs[m.index.id] * m.scale;
    return static_cast<uint64_t>(a + m.disp);
  };

  RunResult result;
  size_t pc = 0;
  uint64_t dyn = 0;
  detail::EvalBudgetState* budget = detail::currentEvalBudget();

  while (true) {
    if (pc >= dfn.insts.size())
      throw std::runtime_error("runDecoded: fell off end of function");
    const DecodedInst& di = dfn.insts[pc];
    const ir::Inst& in = di.inst;
    if (++dyn > maxDynInsts)
      throw std::runtime_error(
          "runDecoded: dynamic instruction budget exceeded");
    if (budget != nullptr) {
      if (budget->stepsLeft == 0)
        throw TimeoutError("evaluation exceeded its interpreter step budget");
      --budget->stepsLeft;
    }

    InstEvent ev;
    ev.inst = &in;
    ev.pcId = di.pcId;

    bool jumped = false;
    switch (in.op) {
      case Op::IMovI: iregs[in.dst.id] = in.imm; break;
      case Op::IMov: iregs[in.dst.id] = iregs[in.src1.id]; break;
      case Op::IAdd: iregs[in.dst.id] = iregs[in.src1.id] + iregs[in.src2.id]; break;
      case Op::ISub: iregs[in.dst.id] = iregs[in.src1.id] - iregs[in.src2.id]; break;
      case Op::IMul: iregs[in.dst.id] = iregs[in.src1.id] * iregs[in.src2.id]; break;
      case Op::IAddI: iregs[in.dst.id] = iregs[in.src1.id] + in.imm; break;
      case Op::IShlI: iregs[in.dst.id] = iregs[in.src1.id] << in.imm; break;
      case Op::IAddCC: {
        int64_t v = iregs[in.src1.id] + in.imm;
        iregs[in.dst.id] = v;
        flags.lt = v < 0;
        flags.eq = v == 0;
        break;
      }
      case Op::ICmp: {
        int64_t a = iregs[in.src1.id], b = iregs[in.src2.id];
        flags.lt = a < b;
        flags.eq = a == b;
        break;
      }
      case Op::ICmpI: {
        int64_t a = iregs[in.src1.id];
        flags.lt = a < in.imm;
        flags.eq = a == in.imm;
        break;
      }
      case Op::ILd: {
        uint64_t a = effAddr(in.mem);
        ev.addr = a;
        ev.accessBytes = 8;
        iregs[in.dst.id] = mem.read<int64_t>(a);
        break;
      }
      case Op::ISt: {
        uint64_t a = effAddr(in.mem);
        ev.addr = a;
        ev.accessBytes = 8;
        mem.write<int64_t>(a, iregs[in.src1.id]);
        break;
      }
      case Op::Jmp:
        pc = di.target;
        jumped = true;
        ev.taken = true;
        break;
      case Op::Jcc: {
        bool taken = flags.test(in.cc);
        ev.taken = taken;
        if (taken) {
          pc = di.target;
          jumped = true;
        }
        break;
      }
      case Op::Ret:
        if (dfn.retType == ir::RetType::Int)
          result.intResult = iregs[in.src1.id];
        else if (dfn.retType == ir::RetType::F32)
          result.fpResult = static_cast<double>(fregs[in.src1.id].f(0));
        else if (dfn.retType == ir::RetType::F64)
          result.fpResult = fregs[in.src1.id].d(0);
        result.dynInsts = dyn;
        if (timing) timing->onDecodedInst(ev, di.cost);
        return result;

      // --- scalar FP ---
      case Op::FLdI:
        if (in.type == Scal::F32)
          fregs[in.dst.id].setF(0, static_cast<float>(in.fimm));
        else
          fregs[in.dst.id].setD(0, in.fimm);
        break;
      case Op::FMov: fregs[in.dst.id] = fregs[in.src1.id]; break;
      case Op::FLd: {
        uint64_t a = effAddr(in.mem);
        ev.addr = a;
        ev.accessBytes = scalBytes(in.type);
        if (in.type == Scal::F32)
          fregs[in.dst.id].setF(0, mem.read<float>(a));
        else
          fregs[in.dst.id].setD(0, mem.read<double>(a));
        break;
      }
      case Op::FSt:
      case Op::FStNT: {
        uint64_t a = effAddr(in.mem);
        ev.addr = a;
        ev.accessBytes = scalBytes(in.type);
        if (in.type == Scal::F32)
          mem.write<float>(a, fregs[in.src1.id].f(0));
        else
          mem.write<double>(a, fregs[in.src1.id].d(0));
        break;
      }
      case Op::FAdd:
      case Op::FSub:
      case Op::FMul:
      case Op::FDiv:
      case Op::FMax: {
        if (in.type == Scal::F32) {
          float a = fregs[in.src1.id].f(0), b = fregs[in.src2.id].f(0), r = 0;
          switch (in.op) {
            case Op::FAdd: r = a + b; break;
            case Op::FSub: r = a - b; break;
            case Op::FMul: r = a * b; break;
            case Op::FDiv: r = a / b; break;
            case Op::FMax: r = a > b ? a : b; break;
            default: break;
          }
          fregs[in.dst.id].setF(0, r);
        } else {
          double a = fregs[in.src1.id].d(0), b = fregs[in.src2.id].d(0), r = 0;
          switch (in.op) {
            case Op::FAdd: r = a + b; break;
            case Op::FSub: r = a - b; break;
            case Op::FMul: r = a * b; break;
            case Op::FDiv: r = a / b; break;
            case Op::FMax: r = a > b ? a : b; break;
            default: break;
          }
          fregs[in.dst.id].setD(0, r);
        }
        break;
      }
      case Op::FAbs:
        if (in.type == Scal::F32)
          fregs[in.dst.id].setF(0, std::fabs(fregs[in.src1.id].f(0)));
        else
          fregs[in.dst.id].setD(0, std::fabs(fregs[in.src1.id].d(0)));
        break;
      case Op::FNeg:
        if (in.type == Scal::F32)
          fregs[in.dst.id].setF(0, -fregs[in.src1.id].f(0));
        else
          fregs[in.dst.id].setD(0, -fregs[in.src1.id].d(0));
        break;
      case Op::FAddM:
      case Op::FMulM: {
        uint64_t a = effAddr(in.mem);
        ev.addr = a;
        ev.accessBytes = scalBytes(in.type);
        if (in.type == Scal::F32) {
          float m = mem.read<float>(a), s = fregs[in.src1.id].f(0);
          fregs[in.dst.id].setF(0, in.op == Op::FAddM ? s + m : s * m);
        } else {
          double m = mem.read<double>(a), s = fregs[in.src1.id].d(0);
          fregs[in.dst.id].setD(0, in.op == Op::FAddM ? s + m : s * m);
        }
        break;
      }
      case Op::FCmp: {
        if (in.type == Scal::F32) {
          float a = fregs[in.src1.id].f(0), b = fregs[in.src2.id].f(0);
          flags.lt = a < b;
          flags.eq = a == b;
        } else {
          double a = fregs[in.src1.id].d(0), b = fregs[in.src2.id].d(0);
          flags.lt = a < b;
          flags.eq = a == b;
        }
        break;
      }

      // --- vector ---
      case Op::VLd: {
        uint64_t a = effAddr(in.mem);
        ev.addr = a;
        ev.accessBytes = ir::kVecBytes;
        mem.readBytes(a, fregs[in.dst.id].b.data(), ir::kVecBytes);
        break;
      }
      case Op::VSt:
      case Op::VStNT: {
        uint64_t a = effAddr(in.mem);
        ev.addr = a;
        ev.accessBytes = ir::kVecBytes;
        mem.writeBytes(a, fregs[in.src1.id].b.data(), ir::kVecBytes);
        break;
      }
      case Op::VMov: fregs[in.dst.id] = fregs[in.src1.id]; break;
      case Op::VAdd:
      case Op::VSub:
      case Op::VMul:
      case Op::VMax: {
        VReg16 r;
        if (in.type == Scal::F32) {
          for (int l = 0; l < 4; ++l) {
            float a = fregs[in.src1.id].f(l), b = fregs[in.src2.id].f(l), v = 0;
            switch (in.op) {
              case Op::VAdd: v = a + b; break;
              case Op::VSub: v = a - b; break;
              case Op::VMul: v = a * b; break;
              case Op::VMax: v = a > b ? a : b; break;
              default: break;
            }
            r.setF(l, v);
          }
        } else {
          for (int l = 0; l < 2; ++l) {
            double a = fregs[in.src1.id].d(l), b = fregs[in.src2.id].d(l), v = 0;
            switch (in.op) {
              case Op::VAdd: v = a + b; break;
              case Op::VSub: v = a - b; break;
              case Op::VMul: v = a * b; break;
              case Op::VMax: v = a > b ? a : b; break;
              default: break;
            }
            r.setD(l, v);
          }
        }
        fregs[in.dst.id] = r;
        break;
      }
      case Op::VAbs: {
        VReg16 r;
        if (in.type == Scal::F32)
          for (int l = 0; l < 4; ++l) r.setF(l, std::fabs(fregs[in.src1.id].f(l)));
        else
          for (int l = 0; l < 2; ++l) r.setD(l, std::fabs(fregs[in.src1.id].d(l)));
        fregs[in.dst.id] = r;
        break;
      }
      case Op::VBcast: {
        VReg16 r;
        if (in.type == Scal::F32) {
          float v = fregs[in.src1.id].f(0);
          for (int l = 0; l < 4; ++l) r.setF(l, v);
        } else {
          double v = fregs[in.src1.id].d(0);
          for (int l = 0; l < 2; ++l) r.setD(l, v);
        }
        fregs[in.dst.id] = r;
        break;
      }
      case Op::VZero: fregs[in.dst.id] = VReg16{}; break;
      case Op::VHAdd: {
        VReg16 r;
        if (in.type == Scal::F32) {
          const VReg16& s = fregs[in.src1.id];
          r.setF(0, ((s.f(0) + s.f(1)) + (s.f(2) + s.f(3))));
        } else {
          const VReg16& s = fregs[in.src1.id];
          r.setD(0, s.d(0) + s.d(1));
        }
        fregs[in.dst.id] = r;
        break;
      }
      case Op::VHMax: {
        VReg16 r;
        if (in.type == Scal::F32) {
          const VReg16& s = fregs[in.src1.id];
          float m = s.f(0);
          for (int l = 1; l < 4; ++l) m = s.f(l) > m ? s.f(l) : m;
          r.setF(0, m);
        } else {
          const VReg16& s = fregs[in.src1.id];
          r.setD(0, s.d(0) > s.d(1) ? s.d(0) : s.d(1));
        }
        fregs[in.dst.id] = r;
        break;
      }
      case Op::VCmpGT: {
        VReg16 r;
        if (in.type == Scal::F32) {
          for (int l = 0; l < 4; ++l) {
            uint32_t m = fregs[in.src1.id].f(l) > fregs[in.src2.id].f(l)
                             ? 0xFFFFFFFFu
                             : 0u;
            std::memcpy(r.b.data() + l * 4, &m, 4);
          }
        } else {
          for (int l = 0; l < 2; ++l) {
            uint64_t m = fregs[in.src1.id].d(l) > fregs[in.src2.id].d(l)
                             ? ~0ull
                             : 0ull;
            std::memcpy(r.b.data() + l * 8, &m, 8);
          }
        }
        fregs[in.dst.id] = r;
        break;
      }
      case Op::VAnd:
      case Op::VAndN:
      case Op::VOr: {
        VReg16 r;
        for (int i = 0; i < ir::kVecBytes; ++i) {
          uint8_t a = fregs[in.src1.id].b[i], b = fregs[in.src2.id].b[i];
          r.b[i] = in.op == Op::VAnd    ? static_cast<uint8_t>(a & b)
                   : in.op == Op::VAndN ? static_cast<uint8_t>(~a & b)
                                        : static_cast<uint8_t>(a | b);
        }
        fregs[in.dst.id] = r;
        break;
      }
      case Op::VSel: {
        VReg16 r;
        for (int i = 0; i < ir::kVecBytes; ++i) {
          uint8_t m = fregs[in.src1.id].b[i];
          r.b[i] = static_cast<uint8_t>((fregs[in.src2.id].b[i] & m) |
                                        (fregs[in.src3.id].b[i] & ~m));
        }
        fregs[in.dst.id] = r;
        break;
      }
      case Op::VMovMsk: {
        int64_t mask = 0;
        if (in.type == Scal::F32) {
          for (int l = 0; l < 4; ++l) {
            uint32_t bits;
            std::memcpy(&bits, fregs[in.src1.id].b.data() + l * 4, 4);
            if (bits & 0x80000000u) mask |= (1 << l);
          }
        } else {
          for (int l = 0; l < 2; ++l) {
            uint64_t bits;
            std::memcpy(&bits, fregs[in.src1.id].b.data() + l * 8, 8);
            if (bits & (1ull << 63)) mask |= (1 << l);
          }
        }
        iregs[in.dst.id] = mask;
        break;
      }
      case Op::VExt: {
        VReg16 r;
        int lane = static_cast<int>(in.imm);
        if (in.type == Scal::F32)
          r.setF(0, fregs[in.src1.id].f(lane));
        else
          r.setD(0, fregs[in.src1.id].d(lane));
        fregs[in.dst.id] = r;
        break;
      }
      case Op::FToI:
        if (in.type == Scal::F32)
          iregs[in.dst.id] = static_cast<int64_t>(fregs[in.src1.id].f(0));
        else
          iregs[in.dst.id] = static_cast<int64_t>(fregs[in.src1.id].d(0));
        break;
      case Op::VIota: {
        VReg16 r;
        if (in.type == Scal::F32)
          for (int l = 0; l < 4; ++l) r.setF(l, static_cast<float>(l));
        else
          for (int l = 0; l < 2; ++l) r.setD(l, static_cast<double>(l));
        fregs[in.dst.id] = r;
        break;
      }
      case Op::VAddM:
      case Op::VMulM: {
        uint64_t a = effAddr(in.mem);
        ev.addr = a;
        ev.accessBytes = ir::kVecBytes;
        VReg16 m;
        mem.readBytes(a, m.b.data(), ir::kVecBytes);
        VReg16 r;
        if (in.type == Scal::F32) {
          for (int l = 0; l < 4; ++l)
            r.setF(l, in.op == Op::VAddM ? fregs[in.src1.id].f(l) + m.f(l)
                                         : fregs[in.src1.id].f(l) * m.f(l));
        } else {
          for (int l = 0; l < 2; ++l)
            r.setD(l, in.op == Op::VAddM ? fregs[in.src1.id].d(l) + m.d(l)
                                         : fregs[in.src1.id].d(l) * m.d(l));
        }
        fregs[in.dst.id] = r;
        break;
      }

      case Op::Pref:
        ev.addr = effAddr(in.mem);
        break;
      case Op::Touch: {
        uint64_t a = effAddr(in.mem);
        ev.addr = a;
        ev.accessBytes = scalBytes(in.type == Scal::I64 ? Scal::F64 : in.type);
        (void)mem.read<uint8_t>(a);
        break;
      }
      case Op::Nop:
        break;
    }

    if (timing) timing->onDecodedInst(ev, di.cost);
    if (!jumped) ++pc;
  }
}

}  // namespace ifko::sim
